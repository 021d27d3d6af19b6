package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"repro/internal/planner"
)

// Request classes of the pland-mix workload.
const (
	classInteractive = "interactive"
	classBatch       = "batch"
)

// mixSpec fixes the offered load of pland-mix: two independent Poisson
// streams (an open loop), and how interactive queries repeat.
type mixSpec struct {
	InteractiveRPS float64
	BatchRPS       float64
	// MeasureShare is the share of interactive queries sent to
	// /v1/measure; the rest go to /v1/estimate. Shares are dealt in
	// rounds of ten, so they are multiples of 0.1.
	MeasureShare float64
	// RepeatShare is the share of interactive queries that repeat an
	// earlier query of the same endpoint; ZipfS skews which one toward
	// the earliest issued.
	RepeatShare float64
	ZipfS       float64
}

// defaultMix keeps the planner's pool about a quarter busy on two cores
// without building a backlog, and gives well over ten samples
// beyond every reported percentile in a 30-second run.
var defaultMix = mixSpec{
	InteractiveRPS: 150,
	BatchRPS:       20,
	MeasureShare:   0.5,
	RepeatShare:    0.6,
	ZipfS:          1.1,
}

// request is one query of the mix, due at an offset from the start of
// the timed phase.
type request struct {
	Due      time.Duration
	Class    string
	Endpoint string
	Body     string
	Repeat   bool
}

func (r request) path() string { return "/v1/" + r.Endpoint }

// corner is a (region, GPU) pair the default provider offers.
type corner struct{ Region, GPU string }

// mixCorners are the cloud corners the mix asks about; set-up warms an
// estimate for each.
var mixCorners = []corner{
	{"us-central1", "K80"}, {"us-central1", "P100"}, {"us-central1", "V100"},
	{"us-west1", "K80"}, {"us-west1", "V100"}, {"us-east1", "P100"},
}

var (
	mixModels     = []string{"ResNet-15", "ResNet-32", "ShakeShakeSmall", "ShakeShakeBig"}
	mixTiers      = []string{"transient", "on-demand"}
	mixSchedulers = []string{"fifo", "cost-greedy", "deadline-aware"}
)

// scenarioPopulation lists every interactive query of one endpoint in
// a fixed order: the finite population repeats are drawn from.
func scenarioPopulation(endpoint string) []planner.ScenarioQuery {
	workers := []int{1, 2, 3, 4, 6, 8, 12, 16}
	steps := []int64{2000, 4000, 8000, 16000, 32000, 64000}
	seeds := []int64{0}
	if endpoint == "measure" {
		// Measured sessions cost simulated steps, so they stay short
		// and vary the seed instead.
		workers, steps = []int{1, 2, 4}, []int64{2000, 4000, 8000}
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	var out []planner.ScenarioQuery
	for _, m := range mixModels {
		for _, c := range mixCorners {
			for _, tier := range mixTiers {
				for _, w := range workers {
					for _, s := range steps {
						for _, seed := range seeds {
							out = append(out, planner.ScenarioQuery{
								Model: m, GPU: c.GPU, Region: c.Region, Tier: tier,
								Workers: w, TargetSteps: s, CheckpointInterval: 1000, Seed: seed,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// deck deals the indices 0..n-1 in shuffled rounds: every round holds
// each index once, so proportions are exact per round while the order
// stays random.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (d *deck) draw() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}

// shareDeck deals true with the given share, exact per round of ten.
type shareDeck struct {
	deck
	yes int
}

func newShareDeck(rng *rand.Rand, share float64) *shareDeck {
	return &shareDeck{deck: deck{rng: rng, n: 10}, yes: int(math.Round(share * 10))}
}

func (d *shareDeck) draw() bool { return d.deck.draw() < d.yes }

// buildMix generates the query sequence due within span. It is a pure
// function of (spec, seed, span). Arrivals are Poisson and each one's
// class is drawn independently; everything that sets a request's cost
// (endpoint, repeat or fresh, batch shape, corner, model) is dealt
// from decks, so every seed offers the same proportions.
func buildMix(spec mixSpec, seed int64, span time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	type stream struct {
		population []planner.ScenarioQuery
		next       int
		issued     []string
		repeat     *shareDeck
	}
	streams := make(map[string]*stream)
	for _, ep := range []string{"estimate", "measure"} {
		pop := scenarioPopulation(ep)
		rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
		streams[ep] = &stream{population: pop, repeat: newShareDeck(rng, spec.RepeatShare)}
	}
	measure := newShareDeck(rng, spec.MeasureShare)
	batch := newBatchDecks(rng)
	batchSeed := rng.Int63n(1 << 40)

	total := spec.InteractiveRPS + spec.BatchRPS
	var out []request
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / total * float64(time.Second))
		if at >= span {
			return out
		}
		if rng.Float64() >= spec.InteractiveRPS/total {
			batchSeed++
			out = append(out, batch.request(at, batchSeed))
			continue
		}
		ep := "estimate"
		if measure.draw() {
			ep = "measure"
		}
		st := streams[ep]
		rq := request{Due: at, Class: classInteractive, Endpoint: ep}
		// A repeat draws a Zipf rank over the queries issued so far;
		// once the population is used up every query repeats.
		if len(st.issued) > 0 && (st.repeat.draw() || st.next == len(st.population)) {
			rank := 0
			if n := len(st.issued); n > 1 {
				rank = int(rand.NewZipf(rng, spec.ZipfS, 1, uint64(n-1)).Uint64())
			}
			rq.Body, rq.Repeat = st.issued[rank], true
		} else {
			rq.Body = mustJSON(st.population[st.next])
			st.next++
			st.issued = append(st.issued, rq.Body)
		}
		out = append(out, rq)
	}
}

// batchDecks deal the batch queries: a small sweep, a cheapest-config
// search, or a fleet run under one of three schedulers, in equal
// shares, each endpoint cycling through its shapes.
type batchDecks struct {
	endpoint, sweep, cheapest, fleet, corner, model, sizes, tiers deck
}

var (
	batchEndpoints = []string{"sweep", "cheapest", "fleet"}
	batchSizes     = [][]int{{1, 2}, {2, 4}}
	batchTiers     = [][]string{{"transient"}, {"transient", "on-demand"}}
)

func newBatchDecks(rng *rand.Rand) *batchDecks {
	d := func(n int) deck { return deck{rng: rng, n: n} }
	return &batchDecks{
		endpoint: d(len(batchEndpoints)),
		sweep:    d(2),
		cheapest: d(2),
		fleet:    d(len(mixSchedulers) * 2 * 2),
		corner:   d(len(mixCorners)),
		model:    d(len(mixModels)),
		sizes:    d(len(batchSizes)),
		tiers:    d(len(batchTiers)),
	}
}

// request deals one batch query. Each carries a fresh seed, so it
// always fans out onto the planner's pool.
func (b *batchDecks) request(at time.Duration, seed int64) request {
	rq := request{Due: at, Class: classBatch, Endpoint: batchEndpoints[b.endpoint.draw()]}
	c := mixCorners[b.corner.draw()]
	grid := planner.GridQuery{
		Model:   mixModels[b.model.draw()],
		Sizes:   batchSizes[b.sizes.draw()],
		GPUs:    []string{c.GPU},
		Regions: []string{c.Region},
		Tiers:   batchTiers[b.tiers.draw()],
	}
	switch rq.Endpoint {
	case "sweep":
		rq.Body = mustJSON(planner.SweepQuery{
			GridQuery:          grid,
			StepsPerWorker:     []int64{4000, 8000}[b.sweep.draw()],
			CheckpointInterval: 1000,
			Seed:               seed,
		})
	case "cheapest":
		rq.Body = mustJSON(planner.CheapestQuery{
			GridQuery:          grid,
			TargetSteps:        []int64{16000, 32000}[b.cheapest.draw()],
			CheckpointInterval: 1000,
			DeadlineHours:      48,
			Seed:               seed,
		})
	default:
		f := b.fleet.draw()
		rq.Body = mustJSON(planner.FleetQuery{
			Scheduler:      mixSchedulers[f%len(mixSchedulers)],
			Jobs:           []int{3, 5}[f/len(mixSchedulers)%2],
			RatePerHour:    4,
			StepsPerWorker: []int64{4000, 8000}[f/len(mixSchedulers)/2],
			Seed:           seed,
		})
	}
	return rq
}

// mustJSON encodes a query type; they hold only strings and numbers,
// so encoding cannot fail.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
