package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/regress"
	"repro/internal/stats"
)

// RegressionRow is one row of Table II or Table IV: a model family
// evaluated by k-fold cross-validation MAE and held-out test MAE.
type RegressionRow struct {
	Name     string
	Features string
	KFoldMAE float64
	KFoldStd float64
	TestMAE  float64
	TestMAPE float64
	// C and Epsilon record grid-search outcomes for SVR rows.
	C, Epsilon float64
	// PaperKFold and PaperTest are the published values.
	PaperKFold, PaperTest float64
}

// evaluateRegressor runs the paper's evaluation protocol on one model
// family: 4:1 train/test split, k-fold CV on the training set, final
// fit and test-set scoring.
func evaluateRegressor(factory regress.Factory, X [][]float64, y []float64, k int, seed int64) (kfoldMean, kfoldStd, testMAE, testMAPE float64, err error) {
	rng := stats.NewRng(seed)
	trX, trY, teX, teY, err := regress.TrainTestSplit(X, y, 0.8, rng)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	kfoldMean, kfoldStd, err = regress.CrossValMAE(factory, trX, trY, k, stats.NewRng(seed+1))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	m := factory()
	if err := m.Fit(trX, trY); err != nil {
		return 0, 0, 0, 0, err
	}
	pred := regress.PredictAll(m, teX)
	return kfoldMean, kfoldStd, stats.MAE(pred, teY), stats.MAPE(pred, teY), nil
}

// rbfCandidates lists kernel-bandwidth candidates swept alongside the
// paper's (C, ε) grid, on min-max-normalized features.
var rbfCandidates = []regress.Kernel{
	regress.RBF{Sigma: 0.05}, regress.RBF{Sigma: 0.1},
	regress.RBF{Sigma: 0.2}, regress.RBF{Sigma: 0.35}, regress.RBF{Sigma: 0.5},
}

var polyCandidates = []regress.Kernel{
	regress.Polynomial{Degree: 2, Coef0: 0.5},
	regress.Polynomial{Degree: 2, Coef0: 1},
	regress.Polynomial{Degree: 2, Coef0: 2},
}

// evaluateSVR grid-searches the kernel bandwidth and (C, ε) on the
// training split exactly as §III-B describes, then evaluates the
// winner.
func evaluateSVR(kernels []regress.Kernel, X [][]float64, y []float64, k int, seed int64) (row RegressionRow, err error) {
	rng := stats.NewRng(seed)
	trX, trY, teX, teY, err := regress.TrainTestSplit(X, y, 0.8, rng)
	if err != nil {
		return row, err
	}
	factory, _, c, eps, _, err := regress.GridSearchSVRKernels(kernels, regress.PaperSVRGrid(), trX, trY, k, stats.NewRng(seed+2))
	if err != nil {
		return row, err
	}
	row.C, row.Epsilon = c, eps
	row.KFoldMAE, row.KFoldStd, err = regress.CrossValMAE(factory, trX, trY, k, stats.NewRng(seed+1))
	if err != nil {
		return row, err
	}
	m := factory()
	if err := m.Fit(trX, trY); err != nil {
		return row, err
	}
	pred := regress.PredictAll(m, teX)
	row.TestMAE = stats.MAE(pred, teY)
	row.TestMAPE = stats.MAPE(pred, teY)
	return row, nil
}

// TableIIResult reproduces Table II: eight step-time prediction
// models.
type TableIIResult struct {
	Rows []RegressionRow
}

func planTableII(seed int64) *campaign.Plan {
	gpus := []model.GPU{model.K80, model.P100}
	p := newPlan(seed)
	dataset := p.declareSpeedDataset(gpus)
	return p.build(func(outs []any) (Result, error) {
		return reduceTableII(seed, gpus, dataset(outs))
	})
}

func reduceTableII(seed int64, gpus []model.GPU, ds *speedDataset) (Result, error) {
	res := &TableIIResult{}
	const k = 5

	// GPU-agnostic dataset: all (model, GPU) pairs with raw features
	// (Cnorm; Cm and Cgpu), min-max normalized over the full set.
	var rawCnorm, rawMulti [][]float64
	var yAll []float64
	for _, g := range gpus {
		for _, m := range ds.models {
			rawCnorm = append(rawCnorm, []float64{m.ComputationRatio(g)})
			rawMulti = append(rawMulti, []float64{m.GFLOPs, model.Spec(g).TFLOPS})
			yAll = append(yAll, ds.stepSec[g][m.Name])
		}
	}
	var s1, s2 regress.MinMaxScaler
	cnormX, err := s1.FitTransform(rawCnorm)
	if err != nil {
		return nil, err
	}
	multiX, err := s2.FitTransform(rawMulti)
	if err != nil {
		return nil, err
	}

	linear := func() regress.Regressor { return &regress.Linear{} }

	kf, ks, tm, tp, err := evaluateRegressor(linear, cnormX, yAll, k, seed+10)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Univariate, GPU-agnostic", Features: "Cnorm",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.072, PaperTest: 0.068,
	})
	kf, ks, tm, tp, err = evaluateRegressor(linear, multiX, yAll, k, seed+11)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate, GPU-agnostic", Features: "Cm, Cgpu",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.103, PaperTest: 0.093,
	})

	// Per-GPU rows: feature is Cm normalized within the GPU's zoo.
	paper := map[model.GPU][3][2]float64{
		model.K80:  {{0.065, 0.068}, {0.035, 0.041}, {0.026, 0.031}},
		model.P100: {{0.029, 0.031}, {0.019, 0.020}, {0.012, 0.016}},
	}
	for gi, g := range gpus {
		gflops, stepSec := ds.gpuVectors(g)
		var scaler regress.MinMaxScaler
		X, err := scaler.FitTransform(regress.AsMatrix(gflops))
		if err != nil {
			return nil, err
		}
		rowSeed := seed + 20 + int64(gi)*10
		kf, ks, tm, tp, err := evaluateRegressor(linear, X, stepSec, k, rowSeed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, RegressionRow{
			Name: fmt.Sprintf("Univariate, %v", g), Features: "Cm",
			KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
			PaperKFold: paper[g][0][0], PaperTest: paper[g][0][1],
		})
		polyRow, err := evaluateSVR(polyCandidates, X, stepSec, k, rowSeed+1)
		if err != nil {
			return nil, err
		}
		polyRow.Name = fmt.Sprintf("SVR Polynomial Kernel, %v", g)
		polyRow.Features = "Cm"
		polyRow.PaperKFold, polyRow.PaperTest = paper[g][1][0], paper[g][1][1]
		res.Rows = append(res.Rows, polyRow)

		rbfRow, err := evaluateSVR(rbfCandidates, X, stepSec, k, rowSeed+2)
		if err != nil {
			return nil, err
		}
		rbfRow.Name = fmt.Sprintf("SVR RBF Kernel, %v", g)
		rbfRow.Features = "Cm"
		rbfRow.PaperKFold, rbfRow.PaperTest = paper[g][2][0], paper[g][2][1]
		res.Rows = append(res.Rows, rbfRow)
	}
	return res, nil
}

// String renders the comparison.
func (r *TableIIResult) String() string {
	t := newTable("Table II — step time prediction models (seconds)",
		"Regression Model", "Input", "K-fold MAE", "Test MAE", "Test MAPE", "paper k-fold/test")
	for _, row := range r.Rows {
		t.addRow(row.Name, row.Features,
			fmt.Sprintf("%.3f±%.3f", row.KFoldMAE, row.KFoldStd),
			fmt.Sprintf("%.3f", row.TestMAE),
			fmt.Sprintf("%.1f%%", row.TestMAPE),
			fmt.Sprintf("%.3f/%.3f", row.PaperKFold, row.PaperTest))
	}
	t.addNote("paper: GPU-specific models beat GPU-agnostic ones; SVR-RBF best (K80 RBF test MAPE 9.02%%)")
	return t.String()
}

// TableIVResult reproduces Table IV: four checkpoint-time prediction
// models.
type TableIVResult struct {
	Rows []RegressionRow
}

func planTableIV(seed int64) *campaign.Plan {
	p := newPlan(seed)
	p.unit("ckpt-dataset", func(s int64) (any, error) {
		return collectCheckpointDataset(5, s), nil
	})
	return p.build(func(outs []any) (Result, error) {
		return reduceTableIV(seed, outs[0].(*checkpointDataset))
	})
}

// tableIVFeatures builds Table IV's three feature matrices from the
// checkpoint observations, in MB and min-max normalized: total size
// (Sc), data and meta sizes (Sd, Sm), and all three parts (Sd, Sm,
// Si). y is the checkpoint time in seconds.
func tableIVFeatures(ds *checkpointDataset) (scX, dmX, allX [][]float64, y []float64, err error) {
	const mb = 1e6
	var rawSc, rawDM, rawAll [][]float64
	for _, o := range ds.observations() {
		rawSc = append(rawSc, []float64{float64(o.DataBytes+o.MetaBytes+o.IndexBytes) / mb})
		rawDM = append(rawDM, []float64{float64(o.DataBytes) / mb, float64(o.MetaBytes) / mb})
		rawAll = append(rawAll, []float64{float64(o.DataBytes) / mb, float64(o.MetaBytes) / mb, float64(o.IndexBytes) / mb})
		y = append(y, o.Seconds)
	}
	var sSc, sDM, sAll regress.MinMaxScaler
	if scX, err = sSc.FitTransform(rawSc); err != nil {
		return nil, nil, nil, nil, err
	}
	if dmX, err = sDM.FitTransform(rawDM); err != nil {
		return nil, nil, nil, nil, err
	}
	if allX, err = sAll.FitTransform(rawAll); err != nil {
		return nil, nil, nil, nil, err
	}
	return scX, dmX, allX, y, nil
}

func reduceTableIV(seed int64, ds *checkpointDataset) (Result, error) {
	const k = 5
	scX, dmX, allX, y, err := tableIVFeatures(ds)
	if err != nil {
		return nil, err
	}

	res := &TableIVResult{}
	linear := func() regress.Regressor { return &regress.Linear{} }

	kf, ks, tm, tp, err := evaluateRegressor(linear, scX, y, k, seed+30)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Univariate", Features: "Sc",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.345, PaperTest: 0.356,
	})
	kf, ks, tm, tp, err = evaluateRegressor(linear, dmX, y, k, seed+31)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate", Features: "Sd, Sm",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.291, PaperTest: 0.353,
	})
	pcaFactory := func() regress.Regressor { return &regress.PCARegressor{Components: 2} }
	kf, ks, tm, tp, err = evaluateRegressor(pcaFactory, allX, y, k, seed+32)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, RegressionRow{
		Name: "Multivariate, Two Components PCA", Features: "Sd, Sm, Si",
		KFoldMAE: kf, KFoldStd: ks, TestMAE: tm, TestMAPE: tp,
		PaperKFold: 0.286, PaperTest: 0.354,
	})
	svrRow, err := evaluateSVR(rbfCandidates, scX, y, k, seed+33)
	if err != nil {
		return nil, err
	}
	svrRow.Name = "SVR RBF kernel"
	svrRow.Features = "Sc"
	svrRow.PaperKFold, svrRow.PaperTest = 0.198, 0.245
	res.Rows = append(res.Rows, svrRow)
	return res, nil
}

// String renders the comparison.
func (r *TableIVResult) String() string {
	t := newTable("Table IV — checkpoint time prediction models (seconds)",
		"Regression Model", "Input", "K-fold MAE", "Test MAE", "Test MAPE", "paper k-fold/test")
	for _, row := range r.Rows {
		t.addRow(row.Name, row.Features,
			fmt.Sprintf("%.3f±%.3f", row.KFoldMAE, row.KFoldStd),
			fmt.Sprintf("%.3f", row.TestMAE),
			fmt.Sprintf("%.1f%%", row.TestMAPE),
			fmt.Sprintf("%.3f/%.3f", row.PaperKFold, row.PaperTest))
	}
	t.addNote("paper: SVR-RBF wins with 5.38%% test MAPE; others ≈1.45–1.74× higher MAE")
	return t.String()
}
