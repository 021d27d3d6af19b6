package cloud

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/stats"
)

// LifetimeSample is one observed transient-server outcome, the unit an
// empirical lifetime model resamples. Survivors (Revoked == false) are
// censored at the 24 h cap; their LifetimeHours is ignored.
type LifetimeSample struct {
	GPU           model.GPU
	Region        Region
	Revoked       bool
	LifetimeHours float64
}

// EmpiricalModel replays observed lifetimes by bootstrap resampling:
// each transient launch draws one recorded outcome, uniformly at
// random, from the sample pool of its (region, GPU) cell — so the
// simulated revocation fraction, lifetime CDF, and censoring all
// converge to the trace's empirical distributions. This is how real
// spot-market data (a revstudy CSV, or the paper's published dataset
// in the same format) drives a simulation; see trace.ReadRecordsCSV.
//
// Cells the trace does not cover fall back to the default Table V
// model, so a partial trace still serves any offered scenario; Covers
// reports which cells replay from data.
type EmpiricalModel struct {
	name string
	// fallback serves uncovered cells; resolved once at construction
	// (the registry is append-only, so the default never changes).
	fallback LifetimeModel
	cells    map[cell][]LifetimeSample
}

// NewEmpiricalModel builds a replay model from samples. The name is
// the registry identity clients select the model by; it must not be
// empty. At least one sample is required — an empty trace cannot mean
// anything but a mistake.
func NewEmpiricalModel(name string, samples []LifetimeSample) (*EmpiricalModel, error) {
	if name == "" {
		return nil, fmt.Errorf("cloud: empirical lifetime model needs a name")
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("cloud: empirical lifetime model %q has no samples", name)
	}
	m := &EmpiricalModel{name: name, fallback: LifetimeModels.Default(), cells: make(map[cell][]LifetimeSample)}
	for i, s := range samples {
		if !s.Region.Valid() || !s.GPU.Valid() {
			return nil, fmt.Errorf("cloud: sample %d names invalid placement (%v, %v)", i, s.Region, s.GPU)
		}
		// The inverted comparison also rejects NaN, which would
		// otherwise corrupt the kernel's event ordering.
		if s.Revoked && !(s.LifetimeHours > 0 && s.LifetimeHours < 24) {
			return nil, fmt.Errorf("cloud: sample %d revoked at %v h, want (0, 24)", i, s.LifetimeHours)
		}
		c := cell{s.GPU, s.Region}
		m.cells[c] = append(m.cells[c], s)
	}
	return m, nil
}

// Name returns the registry identity.
func (m *EmpiricalModel) Name() string { return m.name }

// Covers reports whether the trace has samples for the cell.
func (m *EmpiricalModel) Covers(r Region, g model.GPU) bool {
	return len(m.cells[cell{g, r}]) > 0
}

// CoveredCells renders the cells the trace replays from data, sorted,
// as "region/GPU (n)" — what pland logs at registration time.
func (m *EmpiricalModel) CoveredCells() []string {
	var out []string
	for c, ss := range m.cells {
		out = append(out, fmt.Sprintf("%v/%v (%d)", c.r, c.g, len(ss)))
	}
	sort.Strings(out)
	return out
}

// SampleLifetime bootstraps one recorded outcome for the cell.
func (m *EmpiricalModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	ss := m.cells[cell{g, r}]
	if len(ss) == 0 {
		return m.fallback.SampleLifetime(rng, r, g, launchHours)
	}
	s := ss[rng.Intn(len(ss))]
	if !s.Revoked {
		return false, MaxTransientLifetimeSeconds
	}
	return true, s.LifetimeHours * 3600
}
