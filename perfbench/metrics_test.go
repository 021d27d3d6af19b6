package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestMetricsMatchBenchmarkJSON keeps the code's metric lists and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
			return
		}
		for i := range code {
			if declared[i].Name != code[i].Name || declared[i].Unit != code[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the code %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, code[i].Name, code[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseLatencyHistograms(t *testing.T) {
	text := []byte(`# TYPE pland_http_request_seconds histogram
pland_http_request_seconds_bucket{endpoint="measure",le="0.001"} 3
pland_http_request_seconds_sum{endpoint="measure"} 0.25
pland_http_request_seconds_count{endpoint="measure"} 5
pland_cache_hits_total 7
`)
	got, err := parseLatencyHistograms(text)
	if err != nil {
		t.Fatal(err)
	}
	if h := got["measure"]; h.sum != 0.25 || h.count != 5 || len(got) != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestValidateRejectsMalformedAnswers(t *testing.T) {
	for _, c := range []struct{ endpoint, body string }{
		{"sweep", `{"index":0}` + "\n"},
		{"sweep", `{"index":0,"total":2,"outcome":{}}` + "\n"},
		{"fleet", `{"job":{"id":0}}` + "\n"},
		{"fleet", `{"job":{"id":0}}` + "\n" + `{"summary":{"jobs":2}}` + "\n"},
		{"cheapest", `{"considered":4}`},
		{"estimate", `{"scenario":`},
	} {
		if _, err := validate(c.endpoint, 200, []byte(c.body)); err == nil {
			t.Errorf("%s answer %q passed validation", c.endpoint, c.body)
		}
	}
	a, err := validate("fleet", 200, []byte(`{"job":{"id":0}}`+"\n"+`{"summary":{"jobs":1,"cached":true}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := validate("fleet", 200, []byte(`{"job":{"id":0}}`+"\n"+`{"summary":{"cached":false,"jobs":1}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("answers that differ only in cached canonicalize differently: %s vs %s", a, b)
	}
}
