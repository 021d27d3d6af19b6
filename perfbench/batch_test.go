package main

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

type textResult string

func (r textResult) String() string { return string(r) }

// A plan whose unit fails or panics must fail the pass and count all of
// its units as failed, while every later plan still runs and renders.
func TestRunPassFailedPlans(t *testing.T) {
	unit := func(key string, run func(int64) (any, error)) campaign.Unit {
		return campaign.Unit{Key: key, Run: run}
	}
	ok := func(int64) (any, error) { return 1, nil }
	plan := func(units ...campaign.Unit) func(int64) *campaign.Plan {
		return func(seed int64) *campaign.Plan {
			return &campaign.Plan{Seed: seed, Units: units, Reduce: func([]any) (any, error) {
				return experiments.Result(textResult("rendered")), nil
			}}
		}
	}
	runners := []experiments.Runner{
		{ID: "errs", Title: "a unit returns an error", Plan: plan(
			unit("a", ok), unit("b", func(int64) (any, error) { return nil, errors.New("boom") }), unit("c", ok))},
		{ID: "panics", Title: "a unit panics", Plan: plan(
			unit("d", func(int64) (any, error) { panic("boom") }))},
		{ID: "fine", Title: "every unit succeeds", Plan: plan(unit("e", ok), unit("f", ok))},
	}
	p := runPass(runners, 7, 2, nil, "experiments.unit", "test")
	if p.units != 6 || p.failed != 4 {
		t.Errorf("units %d, failed %d; want 6 and 4", p.units, p.failed)
	}
	if len(p.errs) != 2 {
		t.Errorf("errors %q; want one for each failed plan", p.errs)
	}
	if !bytes.Contains(p.out, []byte("== fine — every unit succeeds\n\nrendered\n")) {
		t.Errorf("the plan after the failed ones was not rendered:\n%s", p.out)
	}
}
