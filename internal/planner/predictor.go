package planner

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/train"
)

// analytic is the lazily-built Eq. 4/5 machinery behind Estimate
// queries: speed and checkpoint models fit once from the calibrated
// curves, plus revocation lifetime CDFs measured on demand per
// (region, GPU) — a few hundred simulated transient instances each —
// so the daemon only pays for the corners of the cloud it is actually
// asked about.
type analytic struct {
	once sync.Once
	err  error

	// mu lets warm estimates evaluate concurrently (read lock) while a
	// lazy lifetime campaign for a new (region, GPU) corner writes the
	// revocation estimator exclusively.
	mu       sync.RWMutex
	speed    *core.SpeedModel
	ckpt     *core.CheckpointModel
	rev      *core.RevocationEstimator
	measured map[string]bool
}

func (a *analytic) init() {
	a.once.Do(func() {
		var speedObs []core.SpeedObservation
		for _, g := range model.AllGPUs() {
			for _, m := range model.Zoo() {
				speedObs = append(speedObs, core.SpeedObservation{
					GPU: g, GFLOPs: m.GFLOPs, StepSeconds: model.StepTimeModel(g, m),
				})
			}
		}
		speed, err := core.FitSpeedModel(speedObs, core.KindSVRRBF)
		if err != nil {
			a.err = err
			return
		}

		rng := stats.NewRng(3)
		var ckptObs []core.CheckpointObservation
		for _, m := range model.Zoo() {
			for i := 0; i < 5; i++ {
				ckptObs = append(ckptObs, core.CheckpointObservation{
					DataBytes:  m.CkptDataBytes,
					MetaBytes:  m.CkptMetaBytes,
					IndexBytes: m.CkptIndexBytes,
					Seconds:    rng.LogNormal(train.CheckpointSeconds(m), 0.04),
				})
			}
		}
		ckpt, err := core.FitCheckpointModel(ckptObs, core.FeatTotalSize, core.KindSVRRBF)
		if err != nil {
			a.err = err
			return
		}

		a.speed = speed
		a.ckpt = ckpt
		a.rev = core.NewRevocationEstimator()
		a.measured = make(map[string]bool)
	})
}

// ensureLifetimes populates the revocation estimator for one
// (region, GPU) corner by running a deterministic measurement
// campaign: 300 transient launches staggered across the day (so the
// Fig. 9 time-of-day hazard structure is sampled evenly), lifetimes
// read back as an ECDF. Caller holds a.mu.
// cornerKey names one (region, GPU) corner of the cloud.
func cornerKey(r cloud.Region, g model.GPU) string {
	return r.String() + "|" + g.String()
}

func (a *analytic) ensureLifetimes(r cloud.Region, g model.GPU) error {
	key := cornerKey(r, g)
	if a.measured[key] {
		return nil
	}
	k := &sim.Kernel{}
	// The seed is a pure function of the corner, so every pland
	// instance answers estimate queries identically.
	p := cloud.NewProvider(k, stats.NewRng(int64(g)*11+int64(r)*101))
	for i := 0; i < 300; i++ {
		g := g
		k.At(sim.Time(float64(i%24)*3600), func() {
			p.MustLaunch(cloud.Request{Region: r, GPU: g, Tier: cloud.Transient})
		})
	}
	k.Run()
	var lifetimes []float64
	for _, in := range p.Instances() {
		lifetimes = append(lifetimes, in.LifetimeSeconds(k.Now())/3600)
	}
	if err := a.rev.SetLifetimes(r.String(), g, lifetimes); err != nil {
		return err
	}
	a.measured[key] = true
	return nil
}

// EstimateResult is the wire form of an Eq. 4 decomposition.
type EstimateResult struct {
	Scenario            string  `json:"scenario"`
	ClusterStepsPerSec  float64 `json:"cluster_steps_per_sec"`
	ComputeHours        float64 `json:"compute_hours"`
	CheckpointHours     float64 `json:"checkpoint_hours"`
	ExpectedRevocations float64 `json:"expected_revocations"`
	RevocationHours     float64 `json:"revocation_hours"`
	TotalHours          float64 `json:"total_hours"`
	CostUSD             float64 `json:"cost_usd"`
	CostPer1kSteps      float64 `json:"cost_per_1k_steps"`
}

// Estimate answers a scenario query analytically with Eqs. 4–5 — no
// training simulation, so it is the sub-millisecond path (after the
// one-time model fit) for scanning large candidate spaces; Measure
// validates the winners. ctx is accepted for symmetry but the
// evaluation is not cancellable once started.
func (p *Planner) Estimate(ctx context.Context, q ScenarioQuery) (EstimateResult, error) {
	sc, steps, ic, err := q.scenario()
	if err != nil {
		return EstimateResult{}, &BadRequestError{err}
	}
	if !cloud.Providers.IsDefault(sc.Provider) {
		// The Eq. 4/5 fit is calibrated against the default provider's
		// price book, startup times, and hazard; answering for another
		// world would silently use the wrong numbers. Measured queries
		// (/v1/measure, /v1/sweep, /v1/cheapest) support every provider.
		return EstimateResult{}, &BadRequestError{fmt.Errorf(
			"planner: analytic estimates support only the default provider %q; measure provider %q instead",
			cloud.DefaultProviderName, sc.Provider)}
	}
	if cloud.RevModelName(sc.Provider, sc.RevModel) != cloud.DefaultLifetimeModelName {
		// The Eq. 5 revocation estimator is fit from lifetime campaigns
		// run under the default calibration; answering for another
		// regime would silently use the wrong hazard. Measured queries
		// (/v1/measure, /v1/sweep, /v1/cheapest) support every model.
		return EstimateResult{}, &BadRequestError{fmt.Errorf(
			"planner: analytic estimates support only the default lifetime model %q; measure rev_model %q instead",
			cloud.DefaultLifetimeModelName, sc.RevModel)}
	}
	a := &p.analytic
	a.init()
	if a.err != nil {
		return EstimateResult{}, a.err
	}

	if sc.Tier == cloud.Transient {
		// Double-checked: warm corners stay on the read lock so
		// concurrent estimates never contend; only an unmeasured
		// corner upgrades to run its lifetime campaign exclusively.
		key := cornerKey(sc.Region, sc.GPU)
		a.mu.RLock()
		measured := a.measured[key]
		a.mu.RUnlock()
		if !measured {
			a.mu.Lock()
			err := a.ensureLifetimes(sc.Region, sc.GPU)
			a.mu.Unlock()
			if err != nil {
				return EstimateResult{}, err
			}
		}
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	workers := make([]core.Placement, sc.Workers)
	for i := range workers {
		workers[i] = core.Placement{
			GPU:       sc.GPU,
			Region:    sc.Region.String(),
			Transient: sc.Tier == cloud.Transient,
		}
	}
	pred := &core.Predictor{
		Speed:              a.speed,
		Checkpoint:         a.ckpt,
		Revocation:         a.rev,
		ProvisionSeconds:   70,
		ReplacementSeconds: train.ReplacementSeconds(sc.Model, true),
	}
	est, err := pred.Estimate(core.Plan{
		Model:   sc.Model,
		Workers: workers,
		// Measured scenarios run one parameter server (the manager's
		// default); the analytic estimate must price the same cluster.
		ParameterServers:   1,
		TargetSteps:        steps,
		CheckpointInterval: ic,
	})
	if err != nil {
		return EstimateResult{}, err
	}
	return EstimateResult{
		Scenario:            sc.Label(),
		ClusterStepsPerSec:  est.ClusterSpeed,
		ComputeHours:        est.ComputeSeconds / 3600,
		CheckpointHours:     est.CheckpointSeconds / 3600,
		ExpectedRevocations: est.ExpectedRevocations,
		RevocationHours:     est.RevocationSeconds / 3600,
		TotalHours:          est.TotalSeconds / 3600,
		CostUSD:             est.CostUSD,
		CostPer1kSteps:      est.CostUSD / (float64(steps) / 1000),
	}, nil
}
