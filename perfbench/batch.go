package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// goldenSeed is the seed the committed snapshots were rendered at.
const goldenSeed = 42

// A batch run measures set-up in bursts: one before the timed passes
// and one after each pass, so its samples spread over the whole run as
// the passes do, rather than over one short spell of the host. A burst
// starts on a freshly collected heap and takes samples for setupBurst,
// at least setupBurstSamples of them, each the mean time of setupBatch
// declarations of every plan; setup_s is the median of all samples.
// One declaration takes well under a millisecond, so a batch keeps each
// sample long enough to time.
const (
	setupBatch        = 20
	setupBurstSamples = 10
	setupBurst        = 100 * time.Millisecond
)

// batchWorkload is a fixed set of experiments run as one campaign on
// campaign.Engine{Workers: nproc}, delivered in plan order and
// rendered exactly as cmd/repro prints them.
type batchWorkload struct {
	ids []string
	// goldens are the snapshots (relative to the repository root) whose
	// concatenation is the seed-42 output stream.
	goldens []string
	// unitLayer names the layer that unit spans are attributed to.
	unitLayer string
}

// runPaperAll runs the paper's 19 artifacts, the stream of
// `repro -exp all`. Nearly all of its time is the serial reduce phase.
func runPaperAll(opts runOptions) (*result, error) {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	return runBatch(opts, batchWorkload{
		ids:       ids,
		goldens:   []string{"cmd/repro/testdata/all.golden"},
		unitLayer: "experiments.unit",
	})
}

// runFleetSim runs the fleet and providers extras: step-level
// multi-job simulations with a trivial reduce and no SVR fitting.
func runFleetSim(opts runOptions) (*result, error) {
	return runBatch(opts, batchWorkload{
		ids:       []string{"fleet", "providers"},
		goldens:   []string{"cmd/repro/testdata/fleet.golden", "cmd/repro/testdata/providers.golden"},
		unitLayer: "fleet.run",
	})
}

// pass is one run of every plan of a batch workload.
type pass struct {
	wall   time.Duration
	cpu    time.Duration
	out    []byte
	units  int
	failed int
	// errs holds every plan error and the engine's own error, if any;
	// each fails the run at every seed.
	errs []string
	// Traced passes only: the root span and the fleet counts read
	// from unit outputs.
	root        int
	fleetJobs   int
	revocations int
}

func runBatch(opts runOptions, bw batchWorkload) (*result, error) {
	runners := make([]experiments.Runner, len(bw.ids))
	for i, id := range bw.ids {
		r, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", id)
		}
		runners[i] = r
	}
	var want []byte
	if opts.seed == goldenSeed {
		for _, g := range bw.goldens {
			b, err := os.ReadFile(g)
			if err != nil {
				return nil, err
			}
			want = append(want, b...)
		}
	}

	res := newResult()
	setup := measureSetup(nil, runners, opts.seed)

	// Passes repeat until the run time is used up, each on its own
	// campaign seed (see passSeed). A traced run alternates untraced
	// and traced passes on the same seed, at least one of each, so the
	// tracing overhead is measured inside one process.
	store, err := newDigestStore(opts.outDir)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer(opts.workload)
	}
	var untraced, traced []pass
	start := time.Now()
	for i := 0; time.Since(start) < opts.seconds || len(untraced) == 0 || (opts.trace && len(traced) == 0); i++ {
		k, ptr := i, (*tracer)(nil)
		if opts.trace {
			k = i / 2
			if i%2 == 1 {
				ptr = tr
			}
		}
		seed := passSeed(opts.seed, k)
		p := runPass(runners, seed, opts.workers, ptr, bw.unitLayer, opts.workload)
		setup = measureSetup(setup, runners, opts.seed)
		res.attempted += p.units
		res.failed += p.failed
		for _, e := range p.errs {
			res.fail("pass %d (seed %d): %s", i, seed, e)
		}
		if want != nil && seed == goldenSeed {
			if !bytes.Equal(p.out, want) {
				res.fail("pass %d output differs from %v: %s", i, bw.goldens, firstDiff(p.out, want))
			}
		} else if err := store.check(res, fmt.Sprintf("%s|seed=%d", opts.workload, seed), digestOf(p.out)); err != nil {
			return nil, err
		}
		if ptr != nil {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}

	var walls, cpus []float64
	for _, p := range untraced {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
	}
	e := res.endToEnd
	e["wall_s"] = median(walls)
	e["cpu_s"] = median(cpus)
	e["setup_s"] = median(setup)
	if e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	e["success_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)

	var spanFile string
	if opts.trace {
		// Per-layer metrics come from the first traced pass, which runs
		// on the workload seed, so counts are that seed's exact counts;
		// the overhead compares it with the untraced pass on the same
		// seed. The self-time table covers every traced pass.
		spans := tr.snapshot()
		res.perLayer = batchLayerMetrics(spans, traced[0], opts.workers, bw.unitLayer)
		overhead := traced[0].wall - untraced[0].wall
		res.perLayer["trace.overhead_s"] = overhead.Seconds()
		res.perLayer["trace.overhead_share"] = overhead.Seconds() / untraced[0].wall.Seconds()
		spanFile = filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", opts.workload, opts.seed))
		if err := tr.writeNDJSON(spanFile); err != nil {
			return nil, err
		}
		res.report = func(w io.Writer) {
			fmt.Fprintf(w, "%s: %d untraced and %d traced passes; on seed %d untraced wall %.3fs, traced wall %.3fs\n",
				opts.workload, len(untraced), len(traced), opts.seed, untraced[0].wall.Seconds(), traced[0].wall.Seconds())
			printSelfTimes(w, fmt.Sprintf("%d traced passes, %d workers", len(traced), opts.workers), selfTimes(spans))
			fmt.Fprintf(w, "spans written to %s\n", spanFile)
		}
	} else {
		res.report = func(w io.Writer) {
			fmt.Fprintf(w, "%s: %d passes, wall %.3f s, CPU %.3f s\n", opts.workload, len(untraced), walls, cpus)
		}
	}
	return res, nil
}

// measureSetup appends one burst of set-up samples to samples.
func measureSetup(samples []float64, runners []experiments.Runner, seed int64) []float64 {
	runtime.GC()
	began := time.Now()
	for n := 0; n < setupBurstSamples || time.Since(began) < setupBurst; n++ {
		start := time.Now()
		for j := 0; j < setupBatch; j++ {
			for _, r := range runners {
				r.Plan(seed)
			}
		}
		samples = append(samples, time.Since(start).Seconds()/setupBatch)
	}
	return samples
}

// passSeed is the campaign seed of pass k of a run with the given
// workload seed: the seed itself first, so seed 42 meets the goldens,
// then seeds derived from it. Rotating seeds averages the seed-to-seed
// difference in simulated work over the passes of a run, while runs
// with different workload seeds share no campaign seed.
func passSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return campaign.Derive(seed, uint64(k), "perfbench/pass") % (1 << 40)
}

// runPass declares and runs every plan once, rendering each result as
// cmd/repro does. With a tracer it wraps each plan's units and reduce
// in spans; without one the plans run exactly as declared.
func runPass(runners []experiments.Runner, seed int64, workers int, tr *tracer, unitLayer, workload string) pass {
	var p pass
	root, endRoot := tr.begin(0, "perfbench.pass", fmt.Sprintf("%s seed=%d", workload, seed))
	defer endRoot()
	p.root = root

	var fleetMu sync.Mutex
	countFleet := func(out any) {
		if r := fleetResultOf(out); r != nil {
			fleetMu.Lock()
			p.fleetJobs += len(r.Jobs)
			p.revocations += r.Revocations
			fleetMu.Unlock()
		}
	}
	plans := make([]*campaign.Plan, len(runners))
	for i, r := range runners {
		_, end := tr.begin(root, "experiments.plan", r.ID)
		plans[i] = r.Plan(seed)
		end()
		if tr != nil {
			plans[i] = tracePlan(tr, root, r.ID, unitLayer, plans[i], countFleet)
		}
	}
	for _, pl := range plans {
		p.units += len(pl.Units)
	}

	engine := campaign.Engine{Workers: workers}
	var buf bytes.Buffer
	start, cpu := time.Now(), cpuTime()
	// A failed plan does not stop the run: every later plan still runs
	// and is delivered, so wall time always covers every plan, and all
	// of a failed plan's units count as failed.
	dropped := engine.RunEach(plans, func(i int, o campaign.Outcome) bool {
		if o.Err != nil {
			fmt.Fprintf(&buf, "%s: %v\n", runners[i].ID, o.Err)
			p.failed += len(plans[i].Units)
			p.errs = append(p.errs, fmt.Sprintf("%s: %v", runners[i].ID, o.Err))
			return true
		}
		_, end := tr.begin(root, "experiments.render", runners[i].ID)
		fmt.Fprintf(&buf, "== %s — %s\n\n", runners[i].ID, runners[i].Title)
		fmt.Fprintln(&buf, o.Value.(experiments.Result).String())
		end()
		return true
	})
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu
	if dropped != nil {
		fmt.Fprintf(&buf, "dropped: %v\n", dropped)
		p.errs = append(p.errs, fmt.Sprintf("dropped: %v", dropped))
	}
	p.out = buf.Bytes()
	return p
}

// tracePlan returns a copy of pl whose units and reduce run inside
// spans. Unit keys are unchanged, so every derived seed and output is
// exactly the untraced plan's.
func tracePlan(tr *tracer, parent int, id, unitLayer string, pl *campaign.Plan, observe func(any)) *campaign.Plan {
	out := &campaign.Plan{Seed: pl.Seed, Units: make([]campaign.Unit, len(pl.Units))}
	for i, u := range pl.Units {
		w := campaign.Unit{Key: u.Key}
		if u.RunScratch != nil {
			w.RunScratch = func(seed int64, s *campaign.Scratch) (any, error) {
				_, end := tr.begin(parent, unitLayer, u.Key)
				v, err := u.RunScratch(seed, s)
				end()
				observe(v)
				return v, err
			}
		} else {
			w.Run = func(seed int64) (any, error) {
				_, end := tr.begin(parent, unitLayer, u.Key)
				v, err := u.Run(seed)
				end()
				observe(v)
				return v, err
			}
		}
		out.Units[i] = w
	}
	if pl.Reduce != nil {
		out.Reduce = func(outs []any) (any, error) {
			_, end := tr.begin(parent, "experiments.reduce", id)
			defer end()
			return pl.Reduce(outs)
		}
	}
	return out
}

// fleetResultOf finds the *fleet.Result a fleet or providers unit
// returns inside its entry struct, or nil for any other output.
func fleetResultOf(out any) *fleet.Result {
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Struct {
		return nil
	}
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInterface() {
			if r, ok := f.Interface().(*fleet.Result); ok {
				return r
			}
		}
	}
	return nil
}

// batchLayerMetrics derives one traced pass's per-layer metrics from
// the spans under its root.
func batchLayerMetrics(all []span, p pass, workers int, unitLayer string) map[string]float64 {
	var spans []span
	for _, s := range all {
		if s.ID == p.root || s.Parent == p.root {
			spans = append(spans, s)
		}
	}
	units := spansOf(spans, unitLayer)
	busy := totalDuration(units)
	wall := p.wall.Seconds()
	m := map[string]float64{
		"campaign.units":             float64(len(units)),
		"campaign.unit_busy_s":       busy.Seconds(),
		"campaign.worker_idle_share": 1 - busy.Seconds()/(float64(workers)*wall),
		"trace.spans":                float64(len(spans)),
	}
	reduces := spansOf(spans, "experiments.reduce")
	reduce := totalDuration(reduces)
	m["experiments.plan_s"] = totalDuration(spansOf(spans, "experiments.plan")).Seconds()
	m["experiments.reduce_s"] = reduce.Seconds()
	m["experiments.reduce_share"] = reduce.Seconds() / wall
	m["experiments.reduce_max_concurrency"] = float64(maxConcurrency(reduces))
	m["experiments.render_s"] = totalDuration(spansOf(spans, "experiments.render")).Seconds()
	for _, s := range reduces {
		switch s.Name {
		case "table4", "table2", "endtoend":
			m["experiments.reduce."+s.Name+"_s"] = (s.End - s.Start).Seconds()
		}
	}
	if unitLayer == "fleet.run" && len(units) > 0 {
		var longest time.Duration
		for _, u := range units {
			longest = max(longest, u.End-u.Start)
		}
		m["fleet.unit_busy_s"] = busy.Seconds()
		m["fleet.unit_max_ms"] = ms(longest)
		m["fleet.jobs"] = float64(p.fleetJobs)
		m["fleet.revocations"] = float64(p.revocations)
		if p.fleetJobs > 0 {
			m["fleet.ms_per_job"] = ms(busy) / float64(p.fleetJobs)
		}
	}
	return m
}

// firstDiff locates the first line where got and want differ.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	return "identical"
}
