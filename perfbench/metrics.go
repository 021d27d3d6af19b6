package main

import (
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists
// below are the benchmark's whole vocabulary and must match the
// end_to_end and per_layer entries of BENCHMARK.json (a test checks).
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are what a user of the system sees. Every run with
// tracing off reports all of them; see METRICS.md for what each means
// on each workload.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

// perLayerMetrics are reported by traced runs, named after the module
// whose public API the spans wrap. A layer a workload never calls
// reports 0.
var perLayerMetrics = []metricDef{
	{"campaign.units", "count"},
	{"campaign.unit_busy_s", "s"},
	{"campaign.worker_idle_share", "ratio"},
	{"campaign.pool_wait_ms_mean", "ms"},
	{"campaign.pool_busy_ms_mean", "ms"},
	{"campaign.queue_depth_max", "count"},
	{"experiments.plan_s", "s"},
	{"experiments.reduce_s", "s"},
	{"experiments.reduce.table4_s", "s"},
	{"experiments.reduce.table2_s", "s"},
	{"experiments.reduce.endtoend_s", "s"},
	{"experiments.reduce_share", "ratio"},
	{"experiments.reduce_max_concurrency", "count"},
	{"experiments.render_s", "s"},
	{"fleet.unit_busy_s", "s"},
	{"fleet.unit_max_ms", "ms"},
	{"fleet.jobs", "count"},
	{"fleet.revocations", "count"},
	{"fleet.ms_per_job", "ms"},
	{"planner.setup.first_estimate_s", "s"},
	{"planner.hits", "count"},
	{"planner.misses", "count"},
	{"planner.coalesced", "count"},
	{"planner.hit_ratio", "ratio"},
	{"planner.hit_ms_p50", "ms"},
	{"planner.miss_ms_p50", "ms"},
	{"planner.estimate_ms_p50", "ms"},
	{"planner.http.server_ms.estimate", "ms"},
	{"planner.http.server_ms.measure", "ms"},
	{"planner.http.server_ms.sweep", "ms"},
	{"planner.http.server_ms.cheapest", "ms"},
	{"planner.http.server_ms.fleet", "ms"},
	{"loadgen.interactive_p50_ms", "ms"},
	{"loadgen.interactive_p99_ms", "ms"},
	{"loadgen.batch_p50_ms", "ms"},
	{"loadgen.batch_p90_ms", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.interactive_samples", "count"},
	{"loadgen.batch_samples", "count"},
	{"loadgen.repeat_share", "ratio"},
	{"loadgen.offered_rps", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_share", "ratio"},
}

// median returns the middle of xs (mean of the two middles for even
// counts), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs,
// 0 for none. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is how many of n samples lie above the nearest-rank p-th
// percentile; run reports print it beside each percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the user and system CPU time the process has used, across
// all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}
