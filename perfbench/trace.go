package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API. Start and End are
// offsets from the tracer's epoch; Parent is the enclosing span's ID
// (0 for a root).
type span struct {
	ID     int
	Parent int
	Layer  string
	Name   string
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its ID and the function
// that closes it. Safe for concurrent use.
func (t *tracer) begin(parent int, layer, name string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: time.Since(t.epoch), End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// snapshot copies the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanRecord is one NDJSON line of the span file; workload is the id
// every span of a run shares.
type spanRecord struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// writeNDJSON writes every closed span to path, one JSON object a line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		rec := spanRecord{ID: s.ID, Parent: s.Parent, Workload: t.workload, Layer: s.Layer, Name: s.Name,
			StartNS: int64(s.Start), EndNS: int64(s.End)}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime aggregates one layer's spans: Total is the summed span
// durations, Self the part of them no child span covers.
type layerTime struct {
	Layer string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes each span's self time (its duration minus the
// union of its children's intervals clipped to it) and sums spans and
// self times per layer, largest self time first.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// maxConcurrency is the largest number of the spans open at one
// instant; 1 means they ran strictly one after another.
func maxConcurrency(spans []span) int {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.Start, 1}, edge{s.End, -1})
	}
	// Ends sort before starts at the same instant, so back-to-back
	// spans do not count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// printSelfTimes writes the "where the time goes" table.
func printSelfTimes(w io.Writer, title string, rows []layerTime) {
	fmt.Fprintf(w, "where the time goes (%s): self time per layer, span time minus covered child time\n", title)
	fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "layer", "spans", "total s", "self s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %8d %12.4f %12.4f\n", r.Layer, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}

// spansOf filters spans by layer.
func spansOf(spans []span, layer string) []span {
	var out []span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

func totalDuration(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.End - s.Start
	}
	return d
}
