package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/trace"
)

// The revmodels experiment answers the question the pluggable
// lifetime-model subsystem exists for: how much do training cost and
// time depend on the *shape* of the revocation process, holding the
// Table V revocation fractions fixed? Every shipped regime — the
// default calibration, the Weibull refit, the pure diurnal hazard, and
// a bootstrap replay of a recorded campaign — measures the same
// scenario grid with full managed sessions.

// revModelsReplications is how many independent sessions each
// (regime, cell) measurement averages; revocation arrival is the
// dominant noise source, and a single session can get lucky.
const revModelsReplications = 2

// revModelsSpec is the comparison grid: the fastest canonical model,
// four transient workers, on cells chosen for revocation contrast —
// europe-west1 K80 (≈67% revoked, front-loaded deaths), us-west1 K80
// (≈23%, back-loaded), and us-west1 V100 (≈73%, short MTTR). The
// workload is sized so sessions span many hours of virtual time;
// regimes that only differ in *when* deaths land need room to differ.
func revModelsSpec() SweepSpec {
	return SweepSpec{
		Model:              model.ResNet15(),
		Sizes:              []int{4},
		GPUs:               []model.GPU{model.K80, model.V100},
		Regions:            []cloud.Region{cloud.EuropeWest1, cloud.USWest1},
		Tiers:              []cloud.Tier{cloud.Transient},
		StepsPerWorker:     500000,
		CheckpointInterval: 1000,
	}
}

// replayLifetimeModel builds the trace-replay entrant: a twelve-day
// paper campaign simulated under the default calibration, exported as
// records, and bootstrapped back as an empirical model — the same path
// a real spot-market CSV takes through cmd/pland's -trace flag. The
// study seed derives from the campaign seed alone, so the experiment
// stays a pure function of -seed.
func replayLifetimeModel(seed int64) (cloud.LifetimeModel, error) {
	k, prov := newCloud(campaign.Derive(seed, 0, "revmodels/replay-study"))
	study, err := trace.RunRevocationStudy(k, prov, trace.PaperCampaign(), 12)
	if err != nil {
		return nil, err
	}
	return study.LifetimeModel("replay")
}

// revModelsEntry is one (regime, scenario) replication.
type revModelsEntry struct {
	RevModel string
	Outcome  ScenarioOutcome
}

func planRevModels(seed int64) *campaign.Plan {
	spec := revModelsSpec()
	p := newPlan(seed)
	type entrant struct {
		name string
		lm   cloud.LifetimeModel
	}
	var entrants []entrant
	for _, name := range []string{"table5", "weibull", "diurnal"} {
		lm, err := cloud.LifetimeModels.Lookup(name)
		if err != nil {
			panic(err) // builtins; unreachable
		}
		entrants = append(entrants, entrant{name, lm})
	}
	replay, replayErr := replayLifetimeModel(seed)
	if replayErr == nil {
		entrants = append(entrants, entrant{"replay", replay})
	}
	for _, e := range entrants {
		for _, sc := range spec.Scenarios() {
			e, sc := e, sc
			sc.RevModel = e.name
			steps := spec.StepsPerWorker * int64(sc.Workers)
			for rep := 0; rep < revModelsReplications; rep++ {
				p.sunit(fmt.Sprintf("revmodels/%s/rep%d", sc.Label(), rep), func(unitSeed int64, scr *campaign.Scratch) (any, error) {
					out, err := runScenarioWith(e.lm, sc, steps, spec.CheckpointInterval, SessionOptions{Scratch: scr}, unitSeed)
					if err != nil {
						return nil, err
					}
					return revModelsEntry{RevModel: e.name, Outcome: out}, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		if replayErr != nil {
			return nil, fmt.Errorf("revmodels: building replay model: %w", replayErr)
		}
		res := &RevModelsResult{Spec: spec, Replications: revModelsReplications}
		for _, o := range outs {
			res.Entries = append(res.Entries, o.(revModelsEntry))
		}
		return res, nil
	})
}

// RevModelsResult renders the cross-regime comparison.
type RevModelsResult struct {
	Spec         SweepSpec
	Replications int
	Entries      []revModelsEntry
}

// String renders one row per (regime, scenario), averaged over the
// replications, in unit declaration order.
func (r *RevModelsResult) String() string {
	t := newTable(fmt.Sprintf("Revocation-model comparison — %s, %d steps/worker, Ic=%d, mean of %d sessions per cell",
		r.Spec.Model.Name, r.Spec.StepsPerWorker, r.Spec.CheckpointInterval, r.Replications),
		"rev model", "scenario", "time (h)", "cost ($)", "revoked", "replaced", "$/1k steps")
	type agg struct {
		n, workers               int
		hours, cost, revs, repls float64
	}
	var order []string
	rows := make(map[string]*agg)
	labels := make(map[string][2]string)
	for _, e := range r.Entries {
		sc := e.Outcome.Scenario
		sc.RevModel = "" // the regime has its own column
		key := e.RevModel + "|" + sc.Label()
		a := rows[key]
		if a == nil {
			a = &agg{workers: sc.Workers}
			rows[key] = a
			order = append(order, key)
			labels[key] = [2]string{e.RevModel, sc.Label()}
		}
		a.n++
		a.hours += e.Outcome.TrainingSeconds / 3600
		a.cost += e.Outcome.CostUSD
		a.revs += float64(e.Outcome.Revocations)
		a.repls += float64(e.Outcome.Replacements)
	}
	for _, key := range order {
		a := rows[key]
		n := float64(a.n)
		steps := float64(r.Spec.StepsPerWorker) * float64(a.workers)
		t.addRow(labels[key][0], labels[key][1],
			fmt.Sprintf("%.2f", a.hours/n),
			fmt.Sprintf("%.2f", a.cost/n),
			fmt.Sprintf("%.1f", a.revs/n),
			fmt.Sprintf("%.1f", a.repls/n),
			fmt.Sprintf("%.3f", a.cost/n/(steps/1000)))
	}
	t.addNote("all regimes share each cell's Table V 24 h revocation fraction; they differ in when deaths land")
	t.addNote("table5 = calibrated CDF + Fig. 9 thinning, weibull = two-quantile refit, diurnal = pure hour-of-day hazard, replay = bootstrap of a recorded campaign")
	return t.String()
}
