package planner

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClusterQuerySharesCacheLineWithPlainQuery pins the cache
// coherence of the cluster axis: a homogeneous cluster query is the
// same measurement as the equivalent gpu/workers query, so the second
// phrasing must be a cache hit, not a second simulation. A mixed
// cluster and a non-static elastic policy are different worlds and
// must each simulate once.
func TestClusterQuerySharesCacheLineWithPlainQuery(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4, CacheSize: 16})
	defer p.Close()
	var sims atomic.Int64
	p.measure = fakeMeasure(&sims)
	ctx := context.Background()

	plain := ScenarioQuery{
		Model: "ResNet-15", Region: "us-west1", Tier: "transient",
		GPU: "P100", Workers: 4, TargetSteps: 100, Seed: 7,
	}
	if _, err := p.Measure(ctx, plain); err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 1 {
		t.Fatalf("plain query ran %d simulations, want 1", sims.Load())
	}

	homog := plain
	homog.GPU, homog.Workers = "", 0
	homog.Cluster = "4xP100"
	out, err := p.Measure(ctx, homog)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 1 {
		t.Fatalf("homogeneous cluster query must hit the plain query's cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}

	mixed := homog
	mixed.Cluster = "2xK80+2xP100"
	out, err = p.Measure(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || sims.Load() != 2 {
		t.Fatalf("mixed cluster query must simulate its own world (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
	// Group order never matters: the reordered spec is the same world.
	reordered := mixed
	reordered.Cluster = "2xP100+2xK80"
	out, err = p.Measure(ctx, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 2 {
		t.Fatalf("reordered cluster groups must share the cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}

	// Explicit "static" is the implicit default; "elastic" keys apart.
	static := plain
	static.Elastic = "static"
	out, err = p.Measure(ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached || sims.Load() != 2 {
		t.Fatalf("explicit static policy must hit the plain query's cache line (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
	elastic := plain
	elastic.Elastic = "elastic"
	out, err = p.Measure(ctx, elastic)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || sims.Load() != 3 {
		t.Fatalf("elastic policy query must simulate its own world (cached=%v, sims=%d)", out.Cached, sims.Load())
	}
}

// TestClusterAndElasticQueryValidation maps malformed cluster and
// elastic phrasings to BadRequestError.
func TestClusterAndElasticQueryValidation(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	base := ScenarioQuery{Model: "ResNet-15", Region: "us-west1", Tier: "transient", TargetSteps: 1}
	bad := map[string]func(q *ScenarioQuery){
		"malformed cluster spec": func(q *ScenarioQuery) { q.Cluster = "P100x4" },
		"zero-count group":       func(q *ScenarioQuery) { q.Cluster = "0xP100" },
		"unknown gpu in cluster": func(q *ScenarioQuery) { q.Cluster = "1xH100" },
		"cluster plus gpu":       func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.GPU = "P100" },
		"cluster plus workers":   func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.Workers = 4 },
		"unoffered cluster cell": func(q *ScenarioQuery) { q.Cluster = "1xK80+1xV100"; q.Region = "us-east1" },
		"unknown elastic policy": func(q *ScenarioQuery) { q.Cluster = "4xP100"; q.Elastic = "no-such-policy" },
	}
	for name, mutate := range bad {
		q := base
		mutate(&q)
		var e *BadRequestError
		if _, err := p.Measure(context.Background(), q); !errors.As(err, &e) {
			t.Errorf("%s: got %v, want BadRequestError", name, err)
		}
	}
	// Like every named field, an unknown policy's 400 lists the registry.
	q := base
	bad["unknown elastic policy"](&q)
	_, err := p.Measure(context.Background(), q)
	if want := `manager: unknown elastic policy "no-such-policy" (available: [static elastic surge])`; err == nil || err.Error() != want {
		t.Errorf("unknown elastic policy: got %v, want %q", err, want)
	}
}

// TestHTTPCatalogListsElasticPolicies is the wire-level discovery
// contract: /v1/catalog advertises the membership policies a query's
// elastic field accepts.
func TestHTTPCatalogListsElasticPolicies(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 4})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	cat := decodeBody[Catalog](t, resp)
	want := map[string]bool{"static": false, "elastic": false, "surge": false}
	for _, name := range cat.ElasticPolicies {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("catalog elastic_policies missing %q (got %v)", name, cat.ElasticPolicies)
		}
	}
}
