package regress

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// searchData is a fixed two-feature dataset with a nonlinear target.
func searchData() ([][]float64, []float64) {
	rng := stats.NewRng(21)
	var X [][]float64
	var y []float64
	for i := 0; i < 24; i++ {
		a, b := rng.Uniform(0, 1), rng.Uniform(0, 1)
		X = append(X, []float64{a, b})
		y = append(y, math.Sin(3*a)+b*b+rng.Normal(0, 0.02))
	}
	return X, y
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// serialSearch is the reference: one cell at a time in (kernel, C, ε)
// order, each scored by CrossValMAE on a fresh rng from foldSeed, the
// first strict minimum winning.
func serialSearch(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, foldSeed int64) (SVRCell, float64, error) {
	var best SVRCell
	bestMAE := -1.0
	for _, kern := range kernels {
		for _, c := range grid.Cs {
			for _, eps := range grid.Epsilons {
				cell := SVRCell{Kernel: kern, C: c, Epsilon: eps}
				mean, _, err := CrossValMAE(cell.New, X, y, k, stats.NewRng(foldSeed))
				if err != nil {
					return best, 0, err
				}
				if bestMAE < 0 || mean < bestMAE {
					best, bestMAE = cell, mean
				}
			}
		}
	}
	return best, bestMAE, nil
}

func TestSearchSVRMatchesSerialReference(t *testing.T) {
	X, y := searchData()
	kernels := []Kernel{RBF{Sigma: 0.1}, RBF{Sigma: 0.3}, Polynomial{Degree: 2, Coef0: 1}}
	grid := SVRGrid{Cs: []float64{10, 40, 70, 100}, Epsilons: []float64{0.01, 0.05, 0.1}}
	want, wantMAE, err := serialSearch(kernels, grid, X, y, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			got, mae, err := SearchSVR(kernels, grid, X, y, 5, 99, stats.MAE)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || math.Float64bits(mae) != math.Float64bits(wantMAE) {
				t.Errorf("GOMAXPROCS=%d: got %v score %v, serial reference %v score %v", procs, got, mae, want, wantMAE)
			}
		})
	}
}

// tagRBF evaluates exactly like its RBF but compares unequal across
// tags, so a test can tell which of two tied kernels won.
type tagRBF struct {
	RBF
	Tag int
}

func TestSearchSVRTieGoesToEarliestCell(t *testing.T) {
	X, y := searchData()
	kernels := []Kernel{tagRBF{RBF{Sigma: 0.3}, 0}, tagRBF{RBF{Sigma: 0.3}, 1}}
	grid := SVRGrid{Cs: []float64{50, 50}, Epsilons: []float64{0.05}}
	folds, err := splitFolds(X, y, 5, stats.NewRng(3))
	if err != nil {
		t.Fatal(err)
	}
	withProcs(4, func() {
		scores, err := scoreCells(svrCells(kernels, grid), folds, stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range scores {
			if math.Float64bits(s) != math.Float64bits(scores[0]) {
				t.Fatalf("cell %d scored %v, want the tie %v", i, s, scores[0])
			}
		}
		if i := firstMin(scores); i != 0 {
			t.Errorf("firstMin over a four-way tie = %d, want 0", i)
		}
		best, _, err := SearchSVR(kernels, grid, X, y, 5, 3, stats.MAE)
		if err != nil {
			t.Fatal(err)
		}
		if best.Kernel.(tagRBF).Tag != 0 {
			t.Errorf("tie won by kernel %v, want the first", best.Kernel)
		}
	})
}

// negKernel makes every diagonal entry of the Gram matrix negative, so
// each fit returns an error instead of panicking.
type negKernel struct{}

func (negKernel) Eval(a, b []float64) float64 { return -2 }
func (negKernel) String() string              { return "neg" }

func TestSearchSVRReturnsFirstFailingCell(t *testing.T) {
	X, y := searchData()
	grid := SVRGrid{Cs: []float64{10, 100}, Epsilons: []float64{0.01, 0.1}}
	// Cells 0-3 succeed, 4-7 return errors, 8-11 panic.
	kernels := []Kernel{RBF{Sigma: 0.3}, negKernel{}, RBF{Sigma: 0}}
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			_, _, err := SearchSVR(kernels, grid, X, y, 5, 1, stats.MAE)
			var ue *campaign.UnitError
			if !errors.As(err, &ue) || ue.Index != 4 || !strings.Contains(err.Error(), "not positive") {
				t.Errorf("GOMAXPROCS=%d: error %v, want cell 4's fit error", procs, err)
			}
		})
	}
}

func TestGridSearchPanickingKernelIsAnError(t *testing.T) {
	X, y := searchData()
	_, _, _, _, err := GridSearchSVR(RBF{Sigma: 0}, PaperSVRGrid(), X, y, 5, stats.NewRng(1))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking kernel gave error %v, want a recovered panic", err)
	}
}
