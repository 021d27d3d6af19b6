package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/planner"
)

// plandSetupReps is how many planners an untraced run sets up;
// setup_s is the median.
const plandSetupReps = 5

// recheckSample is how many distinct measure queries are recomputed
// directly after the timed phase.
const recheckSample = 8

// maxLate is how far behind schedule the generator may dispatch before
// the run is void: the offered load was then not the stated one.
const maxLate = time.Second

// service is one set-up planner and its HTTP handler.
type service struct {
	p *planner.Planner
	h http.Handler
	// setup is planner.New until every corner's warm-up estimate was
	// answered; firstEstimate the first of those answers.
	setup         time.Duration
	firstEstimate time.Duration
}

// setupService starts a planner with nproc workers and answers one
// transient estimate for every corner of the mix, which fits the
// lazy SVR models and runs each corner's lifetime campaign.
func setupService(workers int, tr *tracer) (*service, error) {
	root, endRoot := tr.begin(0, "planner.setup", "setup")
	defer endRoot()
	start := time.Now()
	_, end := tr.begin(root, "planner.New", "New")
	p := planner.New(planner.Config{Workers: workers})
	s := &service{p: p, h: p.Handler()}
	end()
	for i, c := range mixCorners {
		body := mustJSON(planner.ScenarioQuery{Model: "ResNet-32", GPU: c.GPU, Region: c.Region, Tier: "transient",
			Workers: 4, TargetSteps: 64000, CheckpointInterval: 1000})
		t := time.Now()
		_, end := tr.begin(root, "planner.http.estimate", "warm-up "+c.Region+"/"+c.GPU)
		code, b := serve(s.h, http.MethodPost, "/v1/estimate", body)
		end()
		if code != http.StatusOK {
			p.Close()
			return nil, fmt.Errorf("warm-up estimate for %s/%s: status %d: %s", c.Region, c.GPU, code, b)
		}
		if i == 0 {
			s.firstEstimate = time.Since(t)
		}
	}
	s.setup = time.Since(start)
	return s, nil
}

// serve dispatches one request straight into the handler, without a
// socket: loopback TCP would add kernel work, and a client connection
// pool would become the queue.
func serve(h http.Handler, method, path, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// response is one answered request of the mix; latency runs from the
// request's due time, so a stall also delays every request behind it.
type response struct {
	latency time.Duration
	code    int
	body    []byte
}

// phase is one timed pass of the mix against one planner.
type phase struct {
	responses []response
	// makespan runs from the first due time to the last answer; cpu
	// is the process's CPU time over the same span.
	makespan time.Duration
	cpu      time.Duration
	lateMax  time.Duration
	// Planner counters and latency histograms around the phase, and
	// the deepest admission queue the stats sampler saw.
	before, after         planner.Stats
	histBefore, histAfter map[string]histogram
	queueDepthMax         int
}

// histogram is one endpoint's pland_http_request_seconds sum and count.
type histogram struct {
	sum   float64
	count float64
}

// runPhase offers the mix on schedule. With a tracer it records a span
// per request and samples Planner.Stats while the phase runs.
func runPhase(s *service, mix []request, tr *tracer) (phase, error) {
	root, endRoot := tr.begin(0, "loadgen.mix", "mix")
	var ph phase
	var err error
	if ph.before, ph.histBefore, err = snapshotService(s, tr, root); err != nil {
		return ph, err
	}

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					_, end := tr.begin(root, "planner.stats", "Stats")
					st := s.p.Stats()
					end()
					ph.queueDepthMax = max(ph.queueDepthMax, st.QueueDepth)
				}
			}
		}()
	}

	ph.responses = make([]response, len(mix))
	var inflight sync.WaitGroup
	start, cpu := time.Now(), cpuTime()
	for i, rq := range mix {
		if wait := rq.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ph.lateMax = max(ph.lateMax, time.Since(start)-rq.Due)
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			_, end := tr.begin(root, "planner.http."+rq.Endpoint, rq.Class)
			code, body := serve(s.h, http.MethodPost, rq.path(), rq.Body)
			end()
			ph.responses[i] = response{latency: time.Since(start) - rq.Due, code: code, body: body}
		}()
	}
	inflight.Wait()
	ph.cpu = cpuTime() - cpu
	if len(mix) > 0 {
		ph.makespan = time.Since(start) - mix[0].Due
	}
	close(stop)
	sampler.Wait()
	endRoot()
	ph.after, ph.histAfter, err = snapshotService(s, tr, 0)
	return ph, err
}

// snapshotService reads the planner's counters and scrapes /metrics
// for the per-endpoint latency histograms.
func snapshotService(s *service, tr *tracer, parent int) (planner.Stats, map[string]histogram, error) {
	_, end := tr.begin(parent, "planner.stats", "Stats")
	st := s.p.Stats()
	end()
	_, end = tr.begin(parent, "planner.metrics", "/metrics")
	code, body := serve(s.h, http.MethodGet, "/metrics", "")
	end()
	if code != http.StatusOK {
		return st, nil, fmt.Errorf("/metrics: status %d", code)
	}
	hist, err := parseLatencyHistograms(body)
	return st, hist, err
}

// parseLatencyHistograms reads the _sum and _count series of
// pland_http_request_seconds from a Prometheus text exposition.
func parseLatencyHistograms(text []byte) (map[string]histogram, error) {
	out := make(map[string]histogram)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		var isSum bool
		var rest string
		switch {
		case strings.HasPrefix(line, `pland_http_request_seconds_sum{endpoint="`):
			isSum, rest = true, strings.TrimPrefix(line, `pland_http_request_seconds_sum{endpoint="`)
		case strings.HasPrefix(line, `pland_http_request_seconds_count{endpoint="`):
			rest = strings.TrimPrefix(line, `pland_http_request_seconds_count{endpoint="`)
		default:
			continue
		}
		endpoint, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		h := out[endpoint]
		if isSum {
			h.sum = v
		} else {
			h.count = v
		}
		out[endpoint] = h
	}
	return out, sc.Err()
}

func runPlandMix(opts runOptions) (*result, error) {
	mix := buildMix(defaultMix, opts.seed, opts.seconds)
	if len(mix) == 0 {
		return nil, errors.New("the mix is empty")
	}
	res := newResult()
	store, err := newDigestStore(opts.outDir)
	if err != nil {
		return nil, err
	}

	// Untraced: set up several planners for the set-up median and
	// offer the mix to the last one.
	var setups []float64
	var s *service
	for i := 0; i < plandSetupReps; i++ {
		if s != nil {
			s.p.Close()
		}
		if s, err = setupService(opts.workers, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if opts.trace {
			break
		}
	}
	untraced, err := runPhase(s, mix, nil)
	s.p.Close()
	if err != nil {
		return nil, err
	}
	digest := checkPhase(res, mix, untraced)
	recheckMeasures(res, mix, untraced, nil)
	inputs := fmt.Sprintf("%s|seed=%d|seconds=%d", opts.workload, opts.seed, int(opts.seconds.Seconds()))
	if err := store.check(res, inputs, digest); err != nil {
		return nil, err
	}
	e := res.endToEnd
	e["wall_s"] = untraced.makespan.Seconds()
	e["cpu_s"] = untraced.cpu.Seconds()
	e["setup_s"] = median(setups)
	if e["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	e["success_ratio"] = float64(res.attempted-res.failed) / float64(res.attempted)
	// Latencies are measured with tracing off but reported with the
	// per-layer metrics: they have no bound (see METRICS.md).
	lat := classLatencies(mix, untraced)
	l := res.perLayer
	l["loadgen.interactive_p50_ms"] = percentile(lat[classInteractive], 50)
	l["loadgen.interactive_p99_ms"] = percentile(lat[classInteractive], 99)
	l["loadgen.batch_p50_ms"] = percentile(lat[classBatch], 50)
	l["loadgen.batch_p90_ms"] = percentile(lat[classBatch], 90)
	summary := func(w io.Writer) {
		ni, nb := len(lat[classInteractive]), len(lat[classBatch])
		fmt.Fprintf(w, "pland-mix: %d requests over %.1fs: %d interactive (%d beyond p99), %d batch (%d beyond p90); generator at most %.2fms late; CPU %.3fs\n",
			len(mix), opts.seconds.Seconds(), ni, beyond(ni, 99), nb, beyond(nb, 90), ms(untraced.lateMax), untraced.cpu.Seconds())
	}
	res.report = summary
	if !opts.trace {
		return res, nil
	}

	// Traced: a fresh planner, set up and loaded under spans.
	tr := newTracer(opts.workload)
	if s, err = setupService(opts.workers, tr); err != nil {
		return nil, err
	}
	traced, err := runPhase(s, mix, tr)
	s.p.Close()
	if err != nil {
		return nil, err
	}
	if d := checkPhase(res, mix, traced); d != digest {
		res.fail("traced phase digest %s differs from the untraced phase's %s", d, digest)
	}
	recheckMeasures(res, mix, traced, tr)
	plandLayerMetrics(res.perLayer, mix, traced, opts.workers)
	res.perLayer["planner.setup.first_estimate_s"] = s.firstEstimate.Seconds()
	overhead := traced.makespan - untraced.makespan
	res.perLayer["trace.overhead_s"] = overhead.Seconds()
	res.perLayer["trace.overhead_share"] = overhead.Seconds() / untraced.makespan.Seconds()
	spans := tr.snapshot()
	res.perLayer["trace.spans"] = float64(len(spans))
	spanFile := filepath.Join(opts.outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", opts.workload, opts.seed))
	if err := tr.writeNDJSON(spanFile); err != nil {
		return nil, err
	}
	res.report = func(w io.Writer) {
		summary(w)
		fmt.Fprintf(w, "untraced makespan %.3fs, traced makespan %.3fs (generator at most %.2fms late); planner set-up %.3fs, first estimate %.3fs\n",
			untraced.makespan.Seconds(), traced.makespan.Seconds(), ms(traced.lateMax), s.setup.Seconds(), s.firstEstimate.Seconds())
		printSelfTimes(w, fmt.Sprintf("traced set-up and mix, %d workers", opts.workers), selfTimes(spans))
		fmt.Fprintf(w, "spans written to %s\n", spanFile)
	}
	return res, nil
}

// checkPhase applies the correctness gates to one phase: every answer
// is a 200 that decodes into its endpoint's shape, and every repeated
// query got the same answer as its first (cache hits equal the outcome
// that filled them, ignoring "cached"). It returns the digest of all
// answers with "cached" removed.
func checkPhase(res *result, mix []request, ph phase) string {
	res.attempted += len(mix)
	first := make(map[string][]byte)
	all := sha256.New()
	for i, rq := range mix {
		r := ph.responses[i]
		canon, err := validate(rq.Endpoint, r.code, r.body)
		if err != nil {
			res.failed++
			res.fail("request %d (%s %s): %v", i, rq.Endpoint, rq.Body, err)
			continue
		}
		key := rq.Endpoint + " " + rq.Body
		if prev, ok := first[key]; !ok {
			first[key] = canon
		} else if !bytes.Equal(prev, canon) {
			res.fail("request %d (%s %s) answered differently from the first identical request", i, rq.Endpoint, rq.Body)
		}
		all.Write(canon)
	}
	if ph.lateMax > maxLate {
		res.fail("the generator ran %v behind schedule", ph.lateMax)
	}
	return hex.EncodeToString(all.Sum(nil))
}

// validate checks one answer's status and shape and returns its
// canonical form: every JSON value re-encoded without "cached" fields.
func validate(endpoint string, code int, body []byte) ([]byte, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var values []map[string]any
	for {
		var v map[string]any
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("undecodable answer: %w", err)
		}
		values = append(values, v)
	}
	if len(values) == 0 {
		return nil, errors.New("empty answer")
	}
	switch endpoint {
	case "estimate", "measure", "cheapest":
		if len(values) != 1 {
			return nil, fmt.Errorf("%d JSON values, want 1", len(values))
		}
		if endpoint == "cheapest" && values[0]["best"] == nil {
			return nil, errors.New("no cheapest configuration")
		}
	case "sweep":
		if total := jsonInt(values[0]["total"]); total != int64(len(values)) {
			return nil, fmt.Errorf("%d items, want %d", len(values), total)
		}
		for _, v := range values {
			if v["error"] != nil {
				return nil, fmt.Errorf("cell error: %v", v["error"])
			}
		}
	case "fleet":
		summary, ok := values[len(values)-1]["summary"].(map[string]any)
		if !ok {
			return nil, errors.New("no summary line")
		}
		if jobs := jsonInt(summary["jobs"]); jobs != int64(len(values)-1) {
			return nil, fmt.Errorf("%d job lines, summary says %d", len(values)-1, jobs)
		}
	}
	var buf bytes.Buffer
	for _, v := range values {
		dropCached(v)
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// jsonInt reads a decoded JSON integer, or -1 for anything else.
func jsonInt(v any) int64 {
	n, ok := v.(json.Number)
	if !ok {
		return -1
	}
	i, err := n.Int64()
	if err != nil {
		return -1
	}
	return i
}

// dropCached removes every "cached" field, at any depth.
func dropCached(v any) {
	switch t := v.(type) {
	case map[string]any:
		delete(t, "cached")
		for _, c := range t {
			dropCached(c)
		}
	case []any:
		for _, c := range t {
			dropCached(c)
		}
	}
}

// recheckMeasures recomputes a sample of distinct measure queries with
// a direct experiments.MeasureScenario call, seeded as the planner
// seeds its single-unit plan, and compares the answers field by field.
func recheckMeasures(res *result, mix []request, ph phase, tr *tracer) {
	var idx []int
	seen := make(map[string]bool)
	for i, rq := range mix {
		if rq.Endpoint == "measure" && !seen[rq.Body] && ph.responses[i].code == http.StatusOK {
			seen[rq.Body] = true
			idx = append(idx, i)
		}
	}
	stride := max(1, len(idx)/recheckSample)
	for k := 0; k < len(idx); k += stride {
		i := idx[k]
		var q planner.ScenarioQuery
		var got planner.Outcome
		if err := json.Unmarshal([]byte(mix[i].Body), &q); err != nil {
			res.fail("recheck %d: %v", i, err)
			continue
		}
		if err := json.Unmarshal(ph.responses[i].body, &got); err != nil {
			res.fail("recheck %d: %v", i, err)
			continue
		}
		_, end := tr.begin(0, "experiments.MeasureScenario", mix[i].Body)
		want, err := directMeasure(q)
		end()
		if err != nil {
			res.fail("recheck %d: %v", i, err)
			continue
		}
		got.Cached = false
		if !reflect.DeepEqual(got, want) {
			res.fail("measure %s answered %+v, a direct MeasureScenario gives %+v", mix[i].Body, got, want)
		}
	}
}

// directMeasure computes a measure query's wire outcome without the
// planner.
func directMeasure(q planner.ScenarioQuery) (planner.Outcome, error) {
	m, err := model.ByName(q.Model)
	if err != nil {
		return planner.Outcome{}, err
	}
	g, err := model.ParseGPU(q.GPU)
	if err != nil {
		return planner.Outcome{}, err
	}
	r, err := cloud.ParseRegion(q.Region)
	if err != nil {
		return planner.Outcome{}, err
	}
	tier, err := cloud.ParseTier(q.Tier)
	if err != nil {
		return planner.Outcome{}, err
	}
	sc := experiments.Scenario{Model: m, GPU: g, Region: r, Tier: tier, Workers: q.Workers}
	key := experiments.ScenarioKey(sc, q.TargetSteps, q.CheckpointInterval)
	o, err := experiments.MeasureScenario(sc, q.TargetSteps, q.CheckpointInterval, experiments.SessionOptions{},
		campaign.Derive(q.Seed, 0, key))
	if err != nil {
		return planner.Outcome{}, err
	}
	return planner.Outcome{
		Scenario:          sc.Label(),
		Key:               key,
		Seed:              q.Seed,
		TrainingHours:     o.TrainingSeconds / 3600,
		SteadyStepsPerSec: o.SteadySpeed,
		CheckpointCount:   o.CheckpointCount,
		CheckpointSeconds: o.CheckpointSeconds,
		CostUSD:           o.CostUSD,
		CostPer1kSteps:    o.CostUSD / (float64(q.TargetSteps) / 1000),
		Revocations:       o.Revocations,
		Replacements:      o.Replacements,
	}, nil
}

// classLatencies splits the phase's latencies (ms) by request class.
func classLatencies(mix []request, ph phase) map[string][]float64 {
	out := make(map[string][]float64)
	for i, rq := range mix {
		out[rq.Class] = append(out[rq.Class], ms(ph.responses[i].latency))
	}
	return out
}

// plandLayerMetrics derives the traced phase's per-layer metrics from
// the planner's counters, its /metrics histograms and the answers.
func plandLayerMetrics(m map[string]float64, mix []request, ph phase, workers int) {
	b, a := ph.before, ph.after
	jobs := float64(a.PoolJobsRun - b.PoolJobsRun)
	busy := a.PoolBusySeconds - b.PoolBusySeconds
	wall := ph.makespan.Seconds()
	m["campaign.units"] = jobs
	m["campaign.unit_busy_s"] = busy
	m["campaign.worker_idle_share"] = 1 - busy/(float64(workers)*wall)
	if jobs > 0 {
		m["campaign.pool_wait_ms_mean"] = (a.PoolWaitSeconds - b.PoolWaitSeconds) * 1000 / jobs
		m["campaign.pool_busy_ms_mean"] = busy * 1000 / jobs
	}
	m["campaign.queue_depth_max"] = float64(ph.queueDepthMax)

	hits := float64(a.Hits - b.Hits)
	misses := float64(a.Misses - b.Misses)
	coalesced := float64(a.Coalesced - b.Coalesced)
	m["planner.hits"], m["planner.misses"], m["planner.coalesced"] = hits, misses, coalesced
	if n := hits + misses + coalesced; n > 0 {
		m["planner.hit_ratio"] = hits / n
	}
	for _, ep := range []string{"estimate", "measure", "sweep", "cheapest", "fleet"} {
		hb, ha := ph.histBefore[ep], ph.histAfter[ep]
		if n := ha.count - hb.count; n > 0 {
			m["planner.http.server_ms."+ep] = (ha.sum - hb.sum) * 1000 / n
		}
	}

	var hit, miss, estimate []float64
	var interactive, batch, repeats int
	var fleetJobs, revocations int64
	for i, rq := range mix {
		r := ph.responses[i]
		switch rq.Class {
		case classInteractive:
			interactive++
			if rq.Repeat {
				repeats++
			}
		case classBatch:
			batch++
		}
		switch rq.Endpoint {
		case "estimate":
			estimate = append(estimate, ms(r.latency))
		case "measure":
			var o struct {
				Cached bool `json:"cached"`
			}
			if json.Unmarshal(r.body, &o) == nil && o.Cached {
				hit = append(hit, ms(r.latency))
			} else {
				miss = append(miss, ms(r.latency))
			}
		case "fleet":
			lines := bytes.Split(bytes.TrimSpace(r.body), []byte("\n"))
			var last struct {
				Summary planner.FleetSummary `json:"summary"`
			}
			if json.Unmarshal(lines[len(lines)-1], &last) == nil {
				fleetJobs += int64(last.Summary.Jobs)
				revocations += int64(last.Summary.Revocations)
			}
		}
	}
	m["planner.hit_ms_p50"] = percentile(hit, 50)
	m["planner.miss_ms_p50"] = percentile(miss, 50)
	m["planner.estimate_ms_p50"] = percentile(estimate, 50)
	m["fleet.jobs"] = float64(fleetJobs)
	m["fleet.revocations"] = float64(revocations)
	m["loadgen.late_ms_max"] = ms(ph.lateMax)
	m["loadgen.interactive_samples"] = float64(interactive)
	m["loadgen.batch_samples"] = float64(batch)
	if interactive > 0 {
		m["loadgen.repeat_share"] = float64(repeats) / float64(interactive)
	}
	m["loadgen.offered_rps"] = float64(len(mix)) / mix[len(mix)-1].Due.Seconds()
}
