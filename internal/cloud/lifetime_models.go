package cloud

import (
	"math"

	"repro/internal/model"
	"repro/internal/stats"
)

// This file holds the parametric alternatives to the Table V
// calibration. Both are anchored to the same published numbers — every
// cell keeps its Table V revocation fraction — but disagree with the
// default about *when* inside the 24 h window deaths land, which is
// exactly the axis the paper's Figs. 8–9 show matters for training
// cost. See DESIGN.md "Calibration record".

type cell struct {
	g model.GPU
	r Region
}

// offeredCells enumerates the non-N/A cells of Table V in a stable
// order (GPU, then region).
func offeredCells() []cell {
	var out []cell
	for _, g := range model.AllGPUs() {
		for _, r := range AllRegions() {
			if Offered(r, g) {
				out = append(out, cell{g, r})
			}
		}
	}
	return out
}

// --- Weibull ---------------------------------------------------------

// weibullParams holds one cell's fitted scale λ (hours) and shape k.
type weibullParams struct {
	scale, shape float64
}

// weibullModel replaces each cell's empirical lifetime shape with a
// two-parameter Weibull, the textbook hazard family for front-loaded
// ("infant mortality", k < 1) versus wear-out (k > 1) failure. The fit
// preserves two quantiles of the default calibration per cell: the
// 24 h revocation fraction (Table V, exactly) and the median lifetime
// conditional on revocation (matched to the default model's mixture
// CDF). It carries no time-of-day structure — comparing it against
// "diurnal" isolates what Fig. 9's hour-of-day hazard is worth.
type weibullModel struct {
	params map[cell]weibullParams
}

func newWeibullModel() *weibullModel {
	m := &weibullModel{params: make(map[cell]weibullParams)}
	for _, c := range offeredCells() {
		cfg := revocationConfigs[c.g][c.r]
		m.params[c] = fitWeibull(cfg)
	}
	return m
}

// fitWeibull solves for (λ, k) from two constraints:
//
//	P(X < 24)        = frac24h            (Table V, exact)
//	median(X | X<24) = calibrated median  (Fig. 8 shape anchor)
//
// With L1 = -ln(1 - frac/2) and L2 = -ln(1 - frac), the conditional
// median m satisfies (m/λ)^k = L1 and (24/λ)^k = L2, so
// k = ln(L1/L2) / ln(m/24) and λ = 24 / L2^(1/k).
func fitWeibull(cfg revocationConfig) weibullParams {
	m := conditionalMedianHours(cfg)
	l1 := -math.Log(1 - cfg.frac24h/2)
	l2 := -math.Log(1 - cfg.frac24h)
	k := math.Log(l1/l2) / math.Log(m/24)
	return weibullParams{scale: 24 / math.Pow(l2, 1/k), shape: k}
}

// conditionalMedianHours computes the default calibration's median
// lifetime given revocation by bisecting its mixture CDF: with
// probability pEarly an early death (exponential, redrawn uniform past
// 2 h), otherwise the body 2 + 22·u^bodyBias.
func conditionalMedianHours(cfg revocationConfig) float64 {
	cdf := func(x float64) float64 {
		var early float64
		switch {
		case x <= 0:
			early = 0
		case x < 2:
			// P(E ≤ x) plus the mass redrawn uniformly on (0.02, 2).
			early = 1 - stats.Exp(-x/cfg.earlyMeanH)
			if x > 0.02 {
				early += stats.Exp(-2/cfg.earlyMeanH) * (x - 0.02) / 1.98
			}
			if early > 1 {
				early = 1
			}
		default:
			early = 1
		}
		var body float64
		switch {
		case x <= 2:
			body = 0
		case x >= 24:
			body = 1
		default:
			body = math.Pow((x-2)/22, 1/cfg.bodyBias)
		}
		return cfg.pEarly*early + (1-cfg.pEarly)*body
	}
	lo, hi := 1.0/60, 23.98
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func (*weibullModel) Name() string { return "weibull" }

func (m *weibullModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	p, ok := m.params[cell{g, r}]
	if !ok {
		panic("cloud: weibull lifetime for unoffered placement")
	}
	x := rng.Weibull(p.scale, p.shape)
	if x >= 24 {
		return false, MaxTransientLifetimeSeconds
	}
	if x < 1.0/60 {
		x = 1.0 / 60
	}
	return true, x * 3600
}

// --- No-revocation ---------------------------------------------------

// norevokeModel is the serverless-style regime: nothing is ever
// revoked; every server survives to the lifetime cap. It anchors the
// provider-worlds comparison — a market where the paper's entire
// revocation machinery is worth exactly the price difference.
type norevokeModel struct{}

func (norevokeModel) Name() string { return "norevoke" }

func (norevokeModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	return false, MaxTransientLifetimeSeconds
}

// --- Calm Weibull ----------------------------------------------------

// calmKeepFraction is the fraction of weibull revocations the calm
// regime keeps: every cell's 24 h revocation probability is halved
// while the conditional lifetime shape is untouched.
const calmKeepFraction = 0.5

// calmWeibullModel thins the weibull refit's revocations: each death
// the base model draws survives instead with probability
// 1 − calmKeepFraction. It models a market with the same catalog but a
// materially calmer revocation climate — the axis the authors' own
// "Speeding up Deep Learning with Transient Servers" varies across
// providers — and is the default regime of the synthetic aws world.
type calmWeibullModel struct {
	base LifetimeModel
}

func newCalmWeibullModel() *calmWeibullModel {
	return &calmWeibullModel{base: newWeibullModel()}
}

func (*calmWeibullModel) Name() string { return "calm-weibull" }

func (m *calmWeibullModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	revoked, life := m.base.SampleLifetime(rng, r, g, launchHours)
	if revoked && !rng.Bernoulli(calmKeepFraction) {
		return false, MaxTransientLifetimeSeconds
	}
	return revoked, life
}

// --- Diurnal ---------------------------------------------------------

// diurnalModel is a non-homogeneous Poisson revocation process: the
// hazard is piecewise-constant over region-local hours, proportional
// to Fig. 9's hour weights, and scaled per cell so the probability of
// revocation inside the 24 h cap equals the Table V fraction exactly.
// Where the default model *thins* its calibrated lifetime CDF onto the
// hourly weights (keeping Fig. 8's marginal shape), this model lets
// the hour-of-day hazard fully determine the lifetime distribution —
// memoryless within an hour, so a server's survival depends only on
// the hazard hours it has crossed.
type diurnalModel struct {
	// rates[g][h] is the hazard (per hour) during local hour h, shared
	// by every region, before the per-cell scale.
	rates map[model.GPU][24]float64
	// scale[cell] multiplies the shared profile so that the integral
	// over any 24 h window is -ln(1 - frac24h).
	scale map[cell]float64
}

func newDiurnalModel() *diurnalModel {
	m := &diurnalModel{
		rates: make(map[model.GPU][24]float64),
		scale: make(map[cell]float64),
	}
	for _, g := range model.AllGPUs() {
		weights := hourWeights[g]
		var sum float64
		for _, w := range weights {
			sum += w
		}
		var rates [24]float64
		for h, w := range weights {
			rates[h] = w / sum // integrates to 1 over any 24 h window
		}
		m.rates[g] = rates
	}
	for _, c := range offeredCells() {
		cfg := revocationConfigs[c.g][c.r]
		m.scale[c] = -math.Log(1 - cfg.frac24h)
	}
	return m
}

func (*diurnalModel) Name() string { return "diurnal" }

func (m *diurnalModel) SampleLifetime(rng *stats.Rng, r Region, g model.GPU, launchHours float64) (bool, float64) {
	scale, ok := m.scale[cell{g, r}]
	if !ok {
		panic("cloud: diurnal lifetime for unoffered placement")
	}
	rates := m.rates[g]
	// Invert the piecewise-constant hazard: spend an Exp(1) budget
	// walking hour segments from the launch instant; each local hour
	// visited exactly once per 24 h, so the total integral is `scale`
	// and P(survive) = exp(-scale) = 1 - frac24h by construction.
	budget := rng.Exponential(1)
	t := launchHours
	elapsed := 0.0
	for elapsed < 24 {
		dt := math.Floor(t) + 1 - t // to the next wall-clock hour boundary
		if elapsed+dt > 24 {
			dt = 24 - elapsed
		}
		rate := scale * rates[r.LocalHour(t)]
		if rate > 0 && rate*dt >= budget {
			life := elapsed + budget/rate
			if life >= 24 {
				break
			}
			if life < 1.0/60 {
				life = 1.0 / 60
			}
			return true, life * 3600
		}
		budget -= rate * dt
		elapsed += dt
		t += dt
	}
	return false, MaxTransientLifetimeSeconds
}
