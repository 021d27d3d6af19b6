package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// Root [0,100) with children covering [10,50) ∪ [60,100): self 20.
		{ID: 1, Layer: "root", Start: 0, End: 100 * ms},
		// Overlapping children: their union [10,50) counts once.
		{ID: 2, Parent: 1, Layer: "unit", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "unit", Start: 20 * ms, End: 50 * ms},
		// A child running past its parent is clipped to [60,100).
		{ID: 4, Parent: 1, Layer: "reduce", Start: 60 * ms, End: 120 * ms},
		// A grandchild is covered time of its own parent only.
		{ID: 5, Parent: 4, Layer: "unit", Start: 70 * ms, End: 80 * ms},
	}
	want := map[string]layerTime{
		"root":   {Layer: "root", Count: 1, Total: 100 * ms, Self: 20 * ms},
		"unit":   {Layer: "unit", Count: 3, Total: 70 * ms, Self: 70 * ms},
		"reduce": {Layer: "reduce", Count: 1, Total: 60 * ms, Self: 50 * ms},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d: %+v", len(got), len(want), got)
	}
	for _, lt := range got {
		if lt != want[lt.Layer] {
			t.Errorf("layer %s: got %+v, want %+v", lt.Layer, lt, want[lt.Layer])
		}
	}
	// Largest self time first.
	if got[0].Layer != "unit" || got[1].Layer != "reduce" || got[2].Layer != "root" {
		t.Errorf("order = %s, %s, %s; want unit, reduce, root", got[0].Layer, got[1].Layer, got[2].Layer)
	}
}

func TestCoveredWithoutChildren(t *testing.T) {
	if c := covered(span{Start: 0, End: time.Second}, nil); c != 0 {
		t.Fatalf("covered = %v, want 0", c)
	}
}

func TestMaxConcurrency(t *testing.T) {
	serial := []span{{Start: 0, End: 10}, {Start: 10, End: 20}, {Start: 25, End: 30}}
	if got := maxConcurrency(serial); got != 1 {
		t.Errorf("back-to-back spans: concurrency %d, want 1", got)
	}
	overlapping := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 8, End: 9}}
	if got := maxConcurrency(overlapping); got != 3 {
		t.Errorf("nested spans: concurrency %d, want 3", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id, end := tr.begin(0, "layer", "name")
	end()
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}
