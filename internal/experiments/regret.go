package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/fleet"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/stats"
)

// The regret experiment scores every registered fleet scheduler
// against a clairvoyant oracle: for each job, the cheapest idealized
// transient placement that meets its deadline — perfect knowledge of
// speeds, no startup, no revocations, no contention. A policy's
// per-job regret is how many dollars it paid above that bound, plus a
// penalty when it missed a deadline the oracle could have met. Summed
// over the workload this is the canonical online-decision metric: it
// separates policies that merely complete jobs from policies whose
// placements were close to the best achievable, which is exactly the
// claim the predictive scheduler makes for its §III/§V-fed models.

// regretMissPenalty scales the oracle cost of a job whose deadline a
// policy missed but the oracle could meet — missing a feasible
// deadline must cost more than any plausible overspend, or a policy
// could buy regret down by abandoning jobs.
const regretMissPenalty = 2.0

// regretReplications is how many independent (workload, provider-seed)
// draws each (scheduler, regime) measurement averages.
const regretReplications = 2

// jobOracle is the clairvoyant bound for one job: the cheapest
// idealized transient bill over every offered GPU class that meets the
// deadline (Feasible), or the cheapest overall when none can.
type jobOracle struct {
	CostUSD  float64
	Feasible bool
}

// oracleFor scans the catalog for the job's clairvoyant best
// placement. Deadlines are generated at ≥1.5× the optimistic runtime
// on the requested GPU, so Feasible is the expected case; the
// infeasible fallback keeps the score total when a pathological spec
// slips through.
func oracleFor(spec fleet.JobSpec) jobOracle {
	var best jobOracle
	var cheapestAny float64
	found, foundAny := false, false
	for _, g := range model.AllGPUs() {
		if len(cloud.OfferedRegions(g)) == 0 {
			continue
		}
		hours := spec.OptimisticHours(g)
		cost := hours * (float64(spec.Workers)*model.HourlyPrice(g, true) + model.ParameterServerHourly)
		if !foundAny || cost < cheapestAny {
			cheapestAny, foundAny = cost, true
		}
		if hours > spec.DeadlineHours {
			continue
		}
		if !found || cost < best.CostUSD {
			best = jobOracle{CostUSD: cost, Feasible: true}
			found = true
		}
	}
	if found {
		return best
	}
	return jobOracle{CostUSD: cheapestAny}
}

// scoreRegret folds one fleet run against its workload's oracles.
// Per-job regret is max(0, realized − oracle) — a never-admitted job
// must not earn credit for spending nothing — plus the miss penalty
// when a feasible deadline was blown.
func scoreRegret(res *fleet.Result, specs []fleet.JobSpec) regretEntry {
	var e regretEntry
	oracles := make(map[int]jobOracle, len(specs))
	for _, spec := range specs {
		oracles[spec.ID] = oracleFor(spec)
	}
	for _, jr := range res.Jobs {
		o := oracles[jr.ID]
		e.Jobs++
		e.RealizedUSD += jr.CostUSD
		e.OracleUSD += o.CostUSD
		over := jr.CostUSD - o.CostUSD
		if over < 0 {
			over = 0
		}
		e.TotalRegret += over
		if !jr.DeadlineMet {
			e.Misses++
			if o.Feasible {
				e.TotalRegret += regretMissPenalty * o.CostUSD
			}
		}
	}
	return e
}

// regretEntry is one (scheduler, regime) replication's score.
type regretEntry struct {
	Scheduler   string
	Regime      string
	Rep         int
	Jobs        int
	Misses      int
	TotalRegret float64
	RealizedUSD float64
	OracleUSD   float64
}

func planRegret(seed int64) *campaign.Plan {
	p := newPlan(seed)
	schedulers := fleet.Schedulers.Names()
	for _, regime := range fleetRegimes() {
		for _, sched := range schedulers {
			regime, sched := regime, sched
			for rep := 0; rep < regretReplications; rep++ {
				rep := rep
				// As in the fleet experiment, the workload and provider
				// seeds are shared across the schedulers of one (regime,
				// rep) cell — every policy faces identical arrivals and
				// identical cloud randomness, so regret differences are
				// pure policy.
				cfg := fleet.Config{
					Workload:     fleetWorkload(regime.arrival),
					Scheduler:    sched,
					Capacity:     uniformCapacity(regime.slotsPerCell),
					HorizonHours: fleetHorizonHours,
					WorkloadSeed: campaign.Derive(seed, uint64(rep), "regret/workload/"+regime.name),
				}
				simSeed := campaign.Derive(seed, uint64(rep), "regret/sim/"+regime.name)
				p.tunit(fmt.Sprintf("regret/%s/%s/rep%d", regime.name, sched, rep), func(_ int64, rec *obs.Recorder) (any, error) {
					res, err := fleet.RunTraced(cfg, simSeed, rec)
					if err != nil {
						return nil, err
					}
					specs, err := cfg.Workload.Generate(stats.NewRng(cfg.WorkloadSeed))
					if err != nil {
						return nil, err
					}
					e := scoreRegret(res, specs)
					e.Scheduler, e.Regime, e.Rep = sched, regime.name, rep
					return e, nil
				})
			}
		}
	}
	return p.build(func(outs []any) (Result, error) {
		res := &RegretResult{Replications: regretReplications}
		for _, o := range outs {
			res.Entries = append(res.Entries, o.(regretEntry))
		}
		return res, nil
	})
}

// RegretResult renders the scheduler-vs-oracle comparison.
type RegretResult struct {
	Replications int
	Entries      []regretEntry
}

// meanRegret aggregates total regret per (regime, scheduler), averaged
// over replications, preserving declaration order.
func (r *RegretResult) meanRegret() (order []string, rows map[string]*regretAgg) {
	rows = make(map[string]*regretAgg)
	for _, e := range r.Entries {
		key := e.Regime + "|" + e.Scheduler
		a := rows[key]
		if a == nil {
			a = &regretAgg{regime: e.Regime, scheduler: e.Scheduler}
			rows[key] = a
			order = append(order, key)
		}
		a.n++
		a.regret += e.TotalRegret
		a.misses += float64(e.Misses)
		a.realized += e.RealizedUSD
		a.oracle += e.OracleUSD
		a.jobs += e.Jobs
	}
	return order, rows
}

type regretAgg struct {
	regime, scheduler                string
	n                                int
	regret, misses, realized, oracle float64
	jobs                             int
}

// RegimesWherePredictiveBeats lists regimes where the predictive
// scheduler's mean total regret is strictly below every named
// baseline's — the experiment's headline claim, pinned by a test at
// the golden seed.
func (r *RegretResult) RegimesWherePredictiveBeats(baselines ...string) []string {
	_, rows := r.meanRegret()
	var wins []string
	for _, regime := range fleetRegimes() {
		p := rows[regime.name+"|predictive"]
		if p == nil {
			continue
		}
		won := true
		for _, b := range baselines {
			a := rows[regime.name+"|"+b]
			if a == nil || p.regret/float64(p.n) >= a.regret/float64(a.n) {
				won = false
				break
			}
		}
		if won {
			wins = append(wins, regime.name)
		}
	}
	return wins
}

// String renders one row per (regime, scheduler), averaged over the
// replications, in unit declaration order.
func (r *RegretResult) String() string {
	w := fleetWorkload(fleet.ArrivalPoisson)
	t := newTable(fmt.Sprintf("Scheduler regret vs. clairvoyant oracle — %d jobs, %g/h, %d steps/worker, %dh horizon, mean of %d runs per cell",
		w.Jobs, w.RatePerHour, w.StepsPerWorker, fleetHorizonHours, r.Replications),
		"regime", "scheduler", "regret ($)", "$/job", "misses", "realized ($)", "oracle ($)")
	order, rows := r.meanRegret()
	for _, key := range order {
		a := rows[key]
		n := float64(a.n)
		jobs := float64(a.jobs) / n
		t.addRow(a.regime, a.scheduler,
			fmt.Sprintf("%.2f", a.regret/n),
			fmt.Sprintf("%.2f", a.regret/n/jobs),
			fmt.Sprintf("%.1f", a.misses/n),
			fmt.Sprintf("%.2f", a.realized/n),
			fmt.Sprintf("%.2f", a.oracle/n))
	}
	t.addNote("oracle: per job, the cheapest idealized transient bill (perfect speed knowledge, no startup/revocations/contention) over GPU classes meeting its deadline")
	t.addNote("per-job regret = max(0, realized − oracle) + %g × oracle when a feasible deadline was missed; never-admitted jobs earn no credit for spending nothing", regretMissPenalty)
	t.addNote("regimes and per-cell seed sharing as in the fleet experiment; schedulers differ only by policy")
	t.addNote("predictive = placements scored by predicted cost-to-deadline, models refit from the run's own history (analytic Eq. 4/5 until enough completions)")
	return t.String()
}
