package planner

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/manager"
	"repro/internal/model"
)

// Handler serves the planner's HTTP/JSON API:
//
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text exposition (service plane)
//	GET  /v1/stats     cache, coalescing, and pool counters
//	GET  /v1/catalog   models, GPUs, regions, tiers, experiment IDs
//	POST /v1/estimate  analytic Eq. 4/5 estimate for one scenario
//	POST /v1/measure   one measured session (cached, coalesced);
//	                   "trace":true adds the sim-plane event timeline
//	POST /v1/sweep     measure a grid; streams NDJSON, one line per cell
//	POST /v1/cheapest  cheapest grid cell meeting a deadline
//	POST /v1/fleet     multi-job fleet simulation on a shared
//	                   capacity-constrained pool; streams NDJSON, one
//	                   line per job plus an aggregate summary;
//	                   "trace":true streams event lines before the
//	                   summary
//
// Every request runs under its own context: a client that disconnects
// cancels the scenarios it had not yet dispatched. Every endpoint's
// latency lands in the pland_http_request_seconds histogram.
func (p *Planner) Handler() http.Handler {
	reg := p.Metrics()
	mux := http.NewServeMux()
	// timed wraps a handler with its endpoint's latency histogram; the
	// child is captured here, at wiring time, so the request path never
	// touches the vec's lock.
	timed := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		hist := p.httpLatency.With(endpoint)
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			hist.Observe(time.Since(start).Seconds())
		}
	}
	mux.HandleFunc("GET /healthz", timed("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]bool{"ok": true})
	}))
	mux.HandleFunc("GET /metrics", timed("metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}))
	mux.HandleFunc("GET /v1/stats", timed("stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, p.Stats())
	}))
	mux.HandleFunc("GET /v1/catalog", timed("catalog", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, catalog())
	}))
	mux.HandleFunc("POST /v1/estimate", timed("estimate", func(w http.ResponseWriter, r *http.Request) {
		var q ScenarioQuery
		if !decode(w, r, &q) {
			return
		}
		res, err := p.Estimate(r.Context(), q)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, res)
	}))
	mux.HandleFunc("POST /v1/measure", timed("measure", func(w http.ResponseWriter, r *http.Request) {
		var q ScenarioQuery
		if !decode(w, r, &q) {
			return
		}
		res, err := p.Measure(r.Context(), q)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, res)
	}))
	mux.HandleFunc("POST /v1/cheapest", timed("cheapest", func(w http.ResponseWriter, r *http.Request) {
		var q CheapestQuery
		if !decode(w, r, &q) {
			return
		}
		res, err := p.Cheapest(r.Context(), q)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, res)
	}))
	mux.HandleFunc("POST /v1/fleet", timed("fleet", func(w http.ResponseWriter, r *http.Request) {
		var q FleetQuery
		if !decode(w, r, &q) {
			return
		}
		// No pre-validation pass: Fleet validates before it simulates
		// and nothing streams until the whole result resolves, so the
		// error path below still owns the status line (http.Error
		// replaces the optimistic Content-Type).
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		wrote := false
		err := p.Fleet(r.Context(), q, func(item FleetItem) error {
			wrote = true
			if err := enc.Encode(item); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
		// The whole simulation resolves before the first line streams,
		// so a failure with nothing written can still be a real status
		// code; mid-stream errors only mean the client went away.
		if err != nil && !wrote {
			writeErr(w, err)
		}
	}))
	mux.HandleFunc("POST /v1/sweep", timed("sweep", func(w http.ResponseWriter, r *http.Request) {
		var q SweepQuery
		if !decode(w, r, &q) {
			return
		}
		// Validate before the first byte is written: after that the
		// status line is gone and errors can only end the stream.
		spec, err := q.Spec()
		if err != nil {
			writeErr(w, &BadRequestError{err})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		_ = p.Sweep(r.Context(), spec, q.Seed, func(item SweepItem) error {
			if err := enc.Encode(item); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	}))
	return mux
}

// Catalog lists what the planner can be asked about.
type Catalog struct {
	Models  []string `json:"models"`
	GPUs    []string `json:"gpus"`
	Regions []string `json:"regions"`
	Tiers   []string `json:"tiers"`
	// LifetimeModels are the revocation regimes a query's rev_model /
	// rev_models fields accept: the builtins plus any trace-replay
	// models registered at daemon startup (pland -trace).
	LifetimeModels []string `json:"lifetime_models"`
	// Providers are the provider worlds a query's provider / providers
	// fields accept (catalog, price book, startup model, climate).
	Providers []string `json:"providers"`
	// Schedulers are the fleet admission policies /v1/fleet accepts.
	Schedulers []string `json:"schedulers"`
	// ElasticPolicies are the cluster membership policies a query's
	// elastic field accepts.
	ElasticPolicies []string `json:"elastic_policies"`
	Experiments     []string `json:"experiments"`
}

func catalog() Catalog {
	c := Catalog{
		Experiments:     experiments.IDs(),
		LifetimeModels:  cloud.LifetimeModels.Names(),
		Providers:       cloud.Providers.Names(),
		Schedulers:      fleet.Schedulers.Names(),
		ElasticPolicies: manager.ElasticPolicies.Names(),
	}
	for _, m := range model.Zoo() {
		c.Models = append(c.Models, m.Name)
	}
	for _, g := range model.AllGPUs() {
		c.GPUs = append(c.GPUs, g.String())
	}
	for _, r := range cloud.AllRegions() {
		c.Regions = append(c.Regions, r.String())
	}
	c.Tiers = []string{cloud.OnDemand.String(), cloud.Transient.String()}
	return c
}

// maxBodyBytes bounds a request body; the largest legal query (a
// maxGridCells-wide sizes array) is well under 1 MiB, so anything
// bigger is rejected before it can be materialized.
const maxBodyBytes = 1 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	var bad *BadRequestError
	if errors.As(err, &bad) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
