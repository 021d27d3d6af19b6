package experiments

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/regress"
	"repro/internal/stats"
)

// TestTableIVSVRConverges fits every rbfCandidates × paper-grid cell
// on each of the seed-42 Table IV training folds, the fits behind the
// golden's SVR row. Every fit must converge, and well inside the
// iteration cap.
func TestTableIVSVRConverges(t *testing.T) {
	skipShort(t)
	const seed, k = 42, 5
	var ds *checkpointDataset
	p := planTableIV(seed)
	p.Reduce = func(outs []any) (any, error) {
		ds = outs[0].(*checkpointDataset)
		return nil, nil
	}
	if _, err := (campaign.Engine{}).Run(p); err != nil {
		t.Fatal(err)
	}
	scX, _, _, y, err := tableIVFeatures(ds)
	if err != nil {
		t.Fatal(err)
	}
	// The split and fold partition evaluateSVR's grid search draws for
	// Table IV's SVR row.
	trX, trY, _, _, err := regress.TrainTestSplit(scX, y, 0.8, stats.NewRng(seed+33))
	if err != nil {
		t.Fatal(err)
	}
	foldSeed := stats.NewRng(stats.NewRng(seed + 33 + 2).Int63()).Int63()
	folds, err := regress.KFold(len(trX), k, stats.NewRng(foldSeed))
	if err != nil {
		t.Fatal(err)
	}
	grid := regress.PaperSVRGrid()
	worst, fits := 0, 0
	for f, fold := range folds {
		test := make(map[int]bool, len(fold))
		for _, i := range fold {
			test[i] = true
		}
		var fX [][]float64
		var fY []float64
		for i := range trX {
			if !test[i] {
				fX = append(fX, trX[i])
				fY = append(fY, trY[i])
			}
		}
		for _, kern := range rbfCandidates {
			for _, c := range grid.Cs {
				for _, eps := range grid.Epsilons {
					m := &regress.SVR{Kernel: kern, C: c, Epsilon: eps}
					if err := m.Fit(fX, fY); err != nil {
						t.Fatalf("fold %d %v C=%g eps=%g: %v", f, kern, c, eps, err)
					}
					worst = max(worst, m.Iterations())
					fits++
				}
			}
		}
	}
	if limit := regress.DefaultSVRMaxIter / 10; worst >= limit {
		t.Errorf("largest fit took %d iterations, want < %d (MaxIter/10)", worst, limit)
	}
	t.Logf("%d fits, largest %d iterations", fits, worst)
}
