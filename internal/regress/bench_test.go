package regress

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// benchData is n evenly spaced one-feature samples on [0, 1] with a
// target in seconds, the shape of the min-max-scaled model-zoo datasets
// the experiments fit.
func benchData(n int) ([][]float64, []float64) {
	rng := stats.NewRng(int64(n))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := float64(i) / float64(n-1)
		X[i] = []float64{x}
		y[i] = 30*math.Exp(x) + rng.Normal(0, 0.5)
	}
	return X, y
}

// BenchmarkSVRFit times one fit at the sample counts the repository
// ships (n = 13, 48, 64) in the regime its grid searches find hardest:
// a narrow RBF with the largest paper penalty. iters/op is the SMO
// iteration count the fit needs to converge.
func BenchmarkSVRFit(b *testing.B) {
	for _, n := range []int{13, 48, 64} {
		X, y := benchData(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for b.Loop() {
				s := &SVR{Kernel: RBF{Sigma: 0.1}, C: 100, Epsilon: 0.05}
				if err := s.Fit(X, y); err != nil {
					b.Fatal(err)
				}
				iters = s.Iterations()
			}
			b.ReportMetric(float64(iters), "iters/op")
		})
	}
}

// BenchmarkGridSearchSVR times one paper-grid search (10 C × 10 ε,
// 5-fold) on 48 samples, fanned out across GOMAXPROCS.
func BenchmarkGridSearchSVR(b *testing.B) {
	X, y := benchData(48)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, _, _, err := GridSearchSVR(RBF{Sigma: 0.1}, PaperSVRGrid(), X, y, 5, stats.NewRng(1)); err != nil {
			b.Fatal(err)
		}
	}
}
