// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time, checks that every output is correct,
// and prints each metric by name with its unit; the last line of
// standard output is the machine-readable result.
//
// Usage, from the repository root:
//
//	sh perfbench/run.sh --workload paper-all --seed 42 --seconds 20 --trace 0
//
// Workloads:
//
//	paper-all   the 19 paper artifacts of `repro -exp all`
//	fleet-sim   the fleet and providers extras
//	pland-mix   an open-loop, seeded query mix against an in-process planner
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it also runs the workload with spans recorded around every call into
// a layer's public API, writes the spans as NDJSON, prints a self-time
// table per layer and reports the per-layer metrics. METRICS.md lists
// what each metric means and which layer should move it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runOptions is one invocation's configuration.
type runOptions struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string
	workers  int
}

// result is what a workload hands back: the outcome of its correctness
// gates, its request counts, and its metrics.
type result struct {
	problems  []string
	attempted int
	failed    int
	endToEnd  map[string]float64
	perLayer  map[string]float64
	// report prints the run's human-readable detail (self-time table,
	// sample counts) ahead of the metrics.
	report func(io.Writer)
}

func newResult() *result {
	return &result{endToEnd: make(map[string]float64), perLayer: make(map[string]float64)}
}

// fail records a failed correctness gate; any one fails the run.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runOptions) (*result, error){
	"paper-all": runPaperAll,
	"fleet-sim": runFleetSim,
	"pland-mix": runPlandMix,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: paper-all, fleet-sim or pland-mix")
		seed     = flag.Int64("seed", 42, "workload seed")
		seconds  = flag.Int("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		outDir   = flag.String("out", ".bench_build/perfbench", "directory for span files and output digests")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	opts := runOptions{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   *outDir,
		workers:  runtime.GOMAXPROCS(0),
	}
	res, err := w(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if res.report != nil {
		res.report(os.Stdout)
	}
	defs, values := endToEndMetrics, res.endToEnd
	if opts.trace {
		defs, values = perLayerMetrics, res.perLayer
	}
	out, err := emit(res, defs, values, opts.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", opts.workload, p)
	}
	fmt.Println(out)
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the metric table and returns the result line. An
// end-to-end metric the workload did not measure is a bug; a per-layer
// metric of a layer the workload never calls is 0.
func emit(res *result, defs []metricDef, values map[string]float64, optional bool) (string, error) {
	rep := report{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if rep.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !optional {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(rep)
	return string(b), err
}

// digestStore flags two runs of the same benchmark binary whose
// outputs for the same inputs differ. It keeps one digest per (binary,
// input key) in outDir.
type digestStore struct {
	path   string
	binary string
}

func newDigestStore(outDir string) (*digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	return &digestStore{path: filepath.Join(outDir, "digests.json"), binary: hex.EncodeToString(sum[:8])}, nil
}

// check records the digest of the output for inputs, or compares it
// with the one an earlier pass or run recorded for the same inputs.
func (s *digestStore) check(res *result, inputs, digest string) error {
	key := s.binary + "|" + inputs
	stored := make(map[string]string)
	b, err := os.ReadFile(s.path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &stored); err != nil {
			return fmt.Errorf("%s: %w", s.path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if prev, ok := stored[key]; ok {
		if prev != digest {
			res.fail("%s: output digest %s differs from %s recorded earlier for the same inputs", inputs, digest, prev)
		}
		return nil
	}
	stored[key] = digest
	b, err = json.MarshalIndent(stored, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.path, b, 0o644)
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
