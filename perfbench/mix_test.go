package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestMixIsAPureFunctionOfTheSeed(t *testing.T) {
	a := buildMix(defaultMix, 1, 10*time.Second)
	b := buildMix(defaultMix, 1, 10*time.Second)
	if len(a) == 0 {
		t.Fatal("empty mix")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two mixes built from seed 1 differ")
	}
	if c := buildMix(defaultMix, 2, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 built the same mix")
	}
}

// TestMixShares checks that the offered rate, the class shares, the
// measure share and the repeat share land within tolerance of the
// stated spec.
func TestMixShares(t *testing.T) {
	const span = 60 * time.Second
	for _, seed := range []int64{1, 42, 977} {
		mix := buildMix(defaultMix, seed, span)
		var interactive, measure, repeats int
		for i, rq := range mix {
			if i > 0 && rq.Due < mix[i-1].Due {
				t.Fatalf("seed %d: request %d due before its predecessor", seed, i)
			}
			if rq.Class != classInteractive {
				continue
			}
			interactive++
			if rq.Endpoint == "measure" {
				measure++
			}
			if rq.Repeat {
				repeats++
			}
		}
		total := defaultMix.InteractiveRPS + defaultMix.BatchRPS
		checks := []struct {
			name      string
			got, want float64
			tol       float64
		}{
			{"rate (1/s)", float64(len(mix)) / span.Seconds(), total, 0.05 * total},
			{"interactive share", float64(interactive) / float64(len(mix)), defaultMix.InteractiveRPS / total, 0.02},
			// Dealt from decks, so exact up to the last partial round.
			{"measure share", float64(measure) / float64(interactive), defaultMix.MeasureShare, 0.01},
			{"repeat share", float64(repeats) / float64(interactive), defaultMix.RepeatShare, 0.01},
		}
		for _, c := range checks {
			if math.Abs(c.got-c.want) > c.tol {
				t.Errorf("seed %d: %s = %.4f, want %.4f ± %.4f", seed, c.name, c.got, c.want, c.tol)
			}
		}
	}
}

// TestMixRepeatsAreEarlierQueries checks that every repeat names a
// query of the same endpoint issued before it, and that no fresh query
// is issued twice.
func TestMixRepeatsAreEarlierQueries(t *testing.T) {
	seen := make(map[string]bool)
	for i, rq := range buildMix(defaultMix, 7, 20*time.Second) {
		key := rq.Endpoint + " " + rq.Body
		switch {
		case rq.Class == classBatch:
			if seen[key] {
				t.Fatalf("batch request %d repeats an earlier query", i)
			}
		case rq.Repeat && !seen[key]:
			t.Fatalf("request %d is marked as a repeat of a query never issued", i)
		case !rq.Repeat && seen[key]:
			t.Fatalf("fresh request %d was issued before", i)
		}
		seen[key] = true
	}
}
