package regress

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// TrainTestSplit shuffles indices and splits rows into train and test
// sets with the given train fraction (the paper uses 4:1, i.e. 0.8).
func TrainTestSplit(X [][]float64, y []float64, trainFrac float64, rng *stats.Rng) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("regress: train fraction %v outside (0,1)", trainFrac)
	}
	perm := rng.Perm(n)
	nTrain := int(float64(n)*trainFrac + 0.5)
	if nTrain == 0 {
		nTrain = 1
	}
	if nTrain == n {
		nTrain = n - 1
	}
	for i, idx := range perm {
		if i < nTrain {
			trainX = append(trainX, X[idx])
			trainY = append(trainY, y[idx])
		} else {
			testX = append(testX, X[idx])
			testY = append(testY, y[idx])
		}
	}
	return trainX, trainY, testX, testY, nil
}

// KFold partitions indices 0..n-1 into k shuffled folds of near-equal
// size.
func KFold(n, k int, rng *stats.Rng) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("regress: k=%d folds outside [2, %d]", k, n)
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// Factory builds a fresh, untrained regressor; cross-validation and
// grid search train one per fold.
type Factory func() Regressor

// Scorer maps (predictions, targets) to a loss to minimize.
type Scorer func(pred, target []float64) float64

// cvFold is one fold's train/test split. A grid search builds the
// folds once and every cell reads them, so all cells are scored on the
// same partition.
type cvFold struct {
	trX, teX [][]float64
	trY, teY []float64
}

// splitFolds partitions the rows into k shuffled folds drawn from rng
// and assembles each fold's train and test rows in row order.
func splitFolds(X [][]float64, y []float64, k int, rng *stats.Rng) ([]cvFold, error) {
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return nil, err
	}
	folds, err := KFold(n, k, rng)
	if err != nil {
		return nil, err
	}
	inFold := make([]int, n)
	for f, idxs := range folds {
		for _, i := range idxs {
			inFold[i] = f
		}
	}
	out := make([]cvFold, k)
	for f := range out {
		cv := &out[f]
		for i := 0; i < n; i++ {
			if inFold[i] == f {
				cv.teX = append(cv.teX, X[i])
				cv.teY = append(cv.teY, y[i])
			} else {
				cv.trX = append(cv.trX, X[i])
				cv.trY = append(cv.trY, y[i])
			}
		}
	}
	return out, nil
}

// scoreFolds trains a fresh model on each fold's training rows and
// scores it on the fold's test rows, in fold order.
func scoreFolds(newModel Factory, folds []cvFold, score Scorer) ([]float64, error) {
	scores := make([]float64, 0, len(folds))
	for f, cv := range folds {
		m := newModel()
		if err := m.Fit(cv.trX, cv.trY); err != nil {
			return nil, fmt.Errorf("regress: fold %d: %w", f, err)
		}
		scores = append(scores, score(PredictAll(m, cv.teX), cv.teY))
	}
	return scores, nil
}

// CrossValScore runs k-fold cross-validation under an arbitrary
// scorer, returning the per-fold scores' mean and standard deviation.
func CrossValScore(newModel Factory, X [][]float64, y []float64, k int, rng *stats.Rng, score Scorer) (mean, std float64, err error) {
	folds, err := splitFolds(X, y, k, rng)
	if err != nil {
		return 0, 0, err
	}
	scores, err := scoreFolds(newModel, folds, score)
	if err != nil {
		return 0, 0, err
	}
	return stats.Mean(scores), stats.Std(scores), nil
}

// CrossValMAE runs k-fold cross-validation and returns the per-fold
// MAEs' mean and standard deviation — the "K-fold MAE" columns of
// Tables II and IV.
func CrossValMAE(newModel Factory, X [][]float64, y []float64, k int, rng *stats.Rng) (mean, std float64, err error) {
	return CrossValScore(newModel, X, y, k, rng, stats.MAE)
}

// SVRGrid is the paper's hyperparameter search space: penalty p in
// [10, 100] step 10 and ε in [0.01, 0.1] step 0.01 (§III-B).
type SVRGrid struct {
	Cs       []float64
	Epsilons []float64
}

// PaperSVRGrid returns the grid the paper uses.
func PaperSVRGrid() SVRGrid {
	g := SVRGrid{}
	for c := 10.0; c <= 100.0+1e-9; c += 10 {
		g.Cs = append(g.Cs, c)
	}
	for e := 0.01; e <= 0.1+1e-9; e += 0.01 {
		g.Epsilons = append(g.Epsilons, e)
	}
	return g
}

// SVRCell is one point of an SVR hyperparameter search: a kernel and a
// (C, ε) pair.
type SVRCell struct {
	Kernel     Kernel
	C, Epsilon float64
}

// New returns an untrained SVR with the cell's hyperparameters; the
// method value c.New is the cell's Factory.
func (c SVRCell) New() Regressor {
	return &SVR{Kernel: c.Kernel, C: c.C, Epsilon: c.Epsilon}
}

func (c SVRCell) String() string {
	return fmt.Sprintf("%v/C=%g/eps=%g", c.Kernel, c.C, c.Epsilon)
}

// svrCells lists every kernel × C × ε cell in that nesting order.
func svrCells(kernels []Kernel, grid SVRGrid) []SVRCell {
	cells := make([]SVRCell, 0, len(kernels)*len(grid.Cs)*len(grid.Epsilons))
	for _, kern := range kernels {
		for _, c := range grid.Cs {
			for _, eps := range grid.Epsilons {
				cells = append(cells, SVRCell{Kernel: kern, C: c, Epsilon: eps})
			}
		}
	}
	return cells
}

// scoreCells cross-validates every cell on the shared folds and
// returns the mean fold scores in cell order. Each cell is one
// campaign unit, so the cells fan out across GOMAXPROCS workers while
// the scores stay index-ordered. A cell that fails or panics fails the
// search with the first failing cell's *campaign.UnitError.
func scoreCells(cells []SVRCell, folds []cvFold, score Scorer) ([]float64, error) {
	units := make([]campaign.Unit, len(cells))
	for i, cell := range cells {
		units[i] = campaign.Unit{Key: cell.String(), Run: func(int64) (any, error) {
			scores, err := scoreFolds(cell.New, folds, score)
			if err != nil {
				return nil, err
			}
			return stats.Mean(scores), nil
		}}
	}
	v, err := campaign.Engine{}.Run(&campaign.Plan{Units: units})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(cells))
	for i, out := range v.([]any) {
		means[i] = out.(float64)
	}
	return means, nil
}

// firstMin returns the index of the first minimum under a strict <, the
// scan every serial grid search used: a later cell must beat the best
// so far to win, so ties go to the earliest cell.
func firstMin(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s < scores[best] {
			best = i
		}
	}
	return best
}

// SearchSVR cross-validates every kernel × (C, ε) cell on one k-fold
// partition, drawn from stats.NewRng(foldSeed), and returns the cell
// with the lowest mean score. Cells run in parallel; the result does
// not depend on the worker count.
func SearchSVR(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, foldSeed int64, score Scorer) (best SVRCell, bestScore float64, err error) {
	cells := svrCells(kernels, grid)
	if len(cells) == 0 {
		return best, 0, fmt.Errorf("regress: empty SVR search: %d kernels × %d Cs × %d epsilons", len(kernels), len(grid.Cs), len(grid.Epsilons))
	}
	folds, err := splitFolds(X, y, k, stats.NewRng(foldSeed))
	if err != nil {
		return best, 0, err
	}
	scores, err := scoreCells(cells, folds, score)
	if err != nil {
		return best, 0, err
	}
	i := firstMin(scores)
	return cells[i], scores[i], nil
}

// GridSearchSVRKernels cross-validates every kernel × (C, ε)
// combination and returns the best by mean k-fold MAE. The paper grid
// searches the penalty and ε; sweeping the kernel bandwidth alongside
// is the same protocol applied to the kernel's own hyperparameter.
func GridSearchSVRKernels(kernels []Kernel, grid SVRGrid, X [][]float64, y []float64, k int, rng *stats.Rng) (best Factory, bestKernel Kernel, bestC, bestEps, bestMAE float64, err error) {
	// The fold seed a per-kernel GridSearchSVR drew from a shared
	// stats.NewRng(rng.Int63()): keeping it keeps every partition, and
	// so every table built on this search, unchanged.
	foldSeed := stats.NewRng(rng.Int63()).Int63()
	cell, mae, err := SearchSVR(kernels, grid, X, y, k, foldSeed, stats.MAE)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	return cell.New, cell.Kernel, cell.C, cell.Epsilon, mae, nil
}

// GridSearchSVR cross-validates every (C, ε) pair and returns the SVR
// factory for the best pair by mean k-fold MAE, along with the chosen
// parameters and score.
func GridSearchSVR(kernel Kernel, grid SVRGrid, X [][]float64, y []float64, k int, rng *stats.Rng) (best Factory, bestC, bestEps, bestMAE float64, err error) {
	cell, mae, err := SearchSVR([]Kernel{kernel}, grid, X, y, k, rng.Int63(), stats.MAE)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return cell.New, cell.C, cell.Epsilon, mae, nil
}
