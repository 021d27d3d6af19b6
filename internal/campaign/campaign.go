// Package campaign schedules measurement campaigns: batches of
// independent simulation units executed on a worker pool and
// aggregated deterministically.
//
// The sim kernel is single-threaded by design; determinism there comes
// from one event loop consuming one seeded RNG. This package scales
// that model out the same way CM-DARE ran its own measurement campaign
// across GPU types and regions: every independent replication gets its
// own kernel and its own seed, derived SplitMix-style from the
// campaign seed and the unit's position in the plan. Because a unit's
// seed depends only on (campaign seed, unit index) — never on
// scheduling order — and because outputs are collected by index before
// any aggregation runs, a campaign's result is byte-identical whether
// it ran on one worker or sixteen.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Unit is one independent replication: typically a single simulated
// session or measurement study on a fresh kernel. Run receives the
// unit's derived seed and must not share mutable state with other
// units.
type Unit struct {
	// Key labels the unit in errors, e.g. "speed/K80/ResNet-32".
	Key string
	// Run executes the replication with the derived seed.
	Run func(seed int64) (any, error)
	// RunScratch, when set, runs the replication with a pooled
	// per-worker scratch arena and takes precedence over Run. The
	// arena is exclusively the unit's for the duration of the call;
	// anything borrowed from it must not escape into the unit's output
	// (see Scratch).
	RunScratch func(seed int64, s *Scratch) (any, error)
}

// Plan is a declared campaign: a base seed, an ordered list of
// independent units, and a reduce that assembles the final value from
// the unit outputs (outs[i] is Units[i]'s output). Reduce runs only
// after every unit succeeded; it sees outputs in declaration order
// regardless of completion order.
type Plan struct {
	Seed   int64
	Units  []Unit
	Reduce func(outs []any) (any, error)
}

// UnitError reports which unit of a plan failed.
type UnitError struct {
	Key   string
	Index int
	Err   error
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("unit %d (%s): %v", e.Index, e.Key, e.Err)
}

func (e *UnitError) Unwrap() error { return e.Err }

// Outcome is one plan's result in a batch run.
type Outcome struct {
	Value any
	Err   error
}

// ErrSkipped marks a unit that never ran because its batch stopped
// (done returned false) or its context was canceled. Skipped units are
// bookkeeping, not failures: the aggregated error RunEach returns
// filters them out.
var ErrSkipped = errors.New("campaign: unit skipped")

// Pool is a persistent worker pool with a bounded admission queue,
// shared by any number of Engine calls. The per-call pool Engine spins
// up is right for batch runs (cmd/repro); a long-running service that
// answers many concurrent queries wants one fixed set of workers and
// one queue providing backpressure across all of them — that is Pool.
type Pool struct {
	jobs chan func()
	done chan struct{}
	// mu orders Submit against Close: senders hold it shared for the
	// duration of their send, Close takes it exclusively before
	// closing jobs, so a send on a closed channel is impossible.
	mu        sync.RWMutex
	closed    bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	workers int

	// Utilization accounting, fed by Submit's wrapper: wall-clock only,
	// never visible to any simulation. waitNanos is accept → start
	// (queue wait), busyNanos is start → end (execution).
	jobsRun   atomic.Int64
	waitNanos atomic.Int64
	busyNanos atomic.Int64
}

// PoolStats is a snapshot of the pool's cumulative utilization.
type PoolStats struct {
	// Workers is the fixed worker count; QueueCapacity the admission
	// queue's size; QueueDepth the jobs waiting right now.
	Workers       int
	QueueCapacity int
	QueueDepth    int
	// JobsRun counts completed jobs; WaitSeconds and BusySeconds total
	// their queue wait (accept → start) and execution time.
	JobsRun     int64
	WaitSeconds float64
	BusySeconds float64
}

// ErrPoolClosed reports a Submit on a closed pool.
var ErrPoolClosed = errors.New("campaign: pool closed")

// NewPool starts a pool of workers goroutines fed by a queue holding
// up to queue pending jobs (0 means hand-off only: every Submit waits
// for a free worker). Workers ≤ 0 uses GOMAXPROCS.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan func(), queue), done: make(chan struct{}), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// Submit enqueues one job, blocking while the queue is full. It
// returns the context's error if ctx is done — or ErrPoolClosed if the
// pool closes — before the job is accepted; once accepted, the job
// will run.
func (p *Pool) Submit(ctx context.Context, job func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	accepted := time.Now()
	wrapped := func() {
		start := time.Now()
		p.waitNanos.Add(start.Sub(accepted).Nanoseconds())
		job()
		p.busyNanos.Add(time.Since(start).Nanoseconds())
		p.jobsRun.Add(1)
	}
	// Fast path: queue has room (or a worker is waiting).
	select {
	case p.jobs <- wrapped:
		return nil
	default:
	}
	select {
	case p.jobs <- wrapped:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-p.done:
		// Close started while we were waiting for queue space.
		return ErrPoolClosed
	}
}

// Stats snapshots the pool's utilization counters. Safe to call from
// any goroutine, including while jobs run.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:       p.workers,
		QueueCapacity: cap(p.jobs),
		QueueDepth:    len(p.jobs),
		JobsRun:       p.jobsRun.Load(),
		WaitSeconds:   float64(p.waitNanos.Load()) / 1e9,
		BusySeconds:   float64(p.busyNanos.Load()) / 1e9,
	}
}

// Close stops accepting jobs, waits for in-flight submissions to
// resolve, then drains the queue and joins the workers. A submission
// accepted before Close wins the race still runs.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.done) // unblock submitters waiting on a full queue
		p.mu.Lock()   // waits out every sender holding the shared lock
		p.closed = true
		p.mu.Unlock()
		close(p.jobs)
		p.wg.Wait()
	})
}

// Engine runs plans on a pool of Workers goroutines. The zero value
// (or any Workers ≤ 0) uses GOMAXPROCS. When Pool is set, execution is
// dispatched onto that shared pool instead and Workers is ignored: the
// pool's size bounds concurrency across every engine sharing it.
type Engine struct {
	Workers int
	Pool    *Pool
	// OnUnit, when set, is called after each unit retires with its
	// wall-clock execution time — the per-unit timing feed the bench
	// artifact and future perf work read. It may be called from any
	// worker goroutine and must be safe for concurrent use. Timing is
	// observational only; unit results never depend on it.
	OnUnit func(plan, unit int, key string, seconds float64)
}

// Run executes a single plan and returns its reduced value.
func (e Engine) Run(p *Plan) (any, error) {
	return e.RunContext(context.Background(), p)
}

// RunContext is Run with cancellation: units not yet started when ctx
// is done are skipped and surface as ErrSkipped-wrapped unit errors.
func (e Engine) RunContext(ctx context.Context, p *Plan) (any, error) {
	var out Outcome
	e.RunEachContext(ctx, []*Plan{p}, func(i int, o Outcome) bool {
		out = o
		return true
	})
	return out.Value, out.Err
}

// RunAll executes several plans on one shared worker pool, so the tail
// of one experiment overlaps the head of the next. Each plan's unit
// seeds are derived from its own Seed exactly as in Run, and each plan
// reduces over its own index-ordered outputs, so per-plan results are
// identical to running the plans one at a time.
func (e Engine) RunAll(plans []*Plan) []Outcome {
	results := make([]Outcome, len(plans))
	e.RunEach(plans, func(i int, o Outcome) bool {
		results[i] = o
		return true
	})
	return results
}

// RunEach is RunAll with streaming delivery: done is invoked once per
// plan, in declaration order, as soon as that plan and every earlier
// one have finished — so a caller can print experiment results while
// later campaigns are still running. Returning false from done stops
// the batch: units not yet started are skipped (in-flight units
// finish) and no further callbacks fire. Because delivery order is
// declaration order, the sequence of callbacks before a stop is
// identical for every worker count.
//
// A stop can strand real failures: units already in flight when done
// returned false still finish, and their plans are never delivered.
// Rather than dropping those errors on the floor, RunEach returns them
// aggregated (errors.Join of UnitErrors) once every in-flight unit has
// retired; nil means nothing was lost.
func (e Engine) RunEach(plans []*Plan, done func(i int, o Outcome) bool) error {
	return e.RunEachContext(context.Background(), plans, done)
}

// RunEachContext is RunEach with cancellation. When ctx is done, units
// not yet started are skipped (recorded as ErrSkipped-wrapped errors in
// their plans' outcomes) while in-flight units finish; delivery still
// runs to completion so every plan gets its callback. The returned
// error aggregates the context's cause with any real unit errors whose
// plans were never delivered after a stop.
func (e Engine) RunEachContext(ctx context.Context, plans []*Plan, done func(i int, o Outcome) bool) error {
	type job struct{ plan, unit int }
	var jobs []job
	outs := make([][]any, len(plans))
	errs := make([][]error, len(plans))
	remaining := make([]atomic.Int64, len(plans))
	for pi, p := range plans {
		outs[pi] = make([]any, len(p.Units))
		errs[pi] = make([]error, len(p.Units))
		remaining[pi].Store(int64(len(p.Units)))
		for ui := range p.Units {
			jobs = append(jobs, job{pi, ui})
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Delivery state lives on this goroutine: plans are handed to done
	// in declaration order as soon as they and every earlier plan have
	// finished. A false return from done latches stop, which skips
	// every unit not yet started.
	var stop atomic.Bool
	completed := make([]bool, len(plans))
	delivered := make([]bool, len(plans))
	next := 0
	deliver := func(pi int) {
		completed[pi] = true
		for next < len(plans) && completed[next] {
			delivered[next] = true
			if !done(next, reduce(plans[next], outs[next], errs[next])) {
				stop.Store(true)
				next = len(plans)
				return
			}
			next++
		}
	}
	// Plans with no units are ready immediately.
	for pi, p := range plans {
		if len(p.Units) == 0 {
			deliver(pi)
		}
	}

	planReady := make(chan int, len(plans))
	run := func(j job) {
		p := plans[j.plan]
		if stop.Load() {
			errs[j.plan][j.unit] = fmt.Errorf("%w: batch stopped", ErrSkipped)
		} else if cause := context.Cause(ctx); cause != nil {
			errs[j.plan][j.unit] = fmt.Errorf("%w: %v", ErrSkipped, cause)
		} else {
			u := p.Units[j.unit]
			start := time.Now()
			out, err := runUnit(u, Derive(p.Seed, uint64(j.unit), u.Key))
			if e.OnUnit != nil {
				e.OnUnit(j.plan, j.unit, u.Key, time.Since(start).Seconds())
			}
			outs[j.plan][j.unit] = out
			errs[j.plan][j.unit] = err
		}
		// The worker that retires a plan's last unit announces it; the
		// atomic decrement orders every worker's writes to this plan's
		// slots before the channel send.
		if remaining[j.plan].Add(-1) == 0 {
			planReady <- j.plan
		}
	}

	// Every plan with units announces exactly once.
	announcing := 0
	for _, p := range plans {
		if len(p.Units) > 0 {
			announcing++
		}
	}

	switch {
	case e.Pool != nil:
		// Shared pool: submissions ride the pool's bounded queue, so a
		// full queue backpressures this call without starving other
		// engines. A submission aborted by ctx retires its unit here.
		for _, j := range jobs {
			j := j
			if err := e.Pool.Submit(ctx, func() { run(j) }); err != nil {
				errs[j.plan][j.unit] = fmt.Errorf("%w: %v", ErrSkipped, err)
				if remaining[j.plan].Add(-1) == 0 {
					planReady <- j.plan
				}
			}
		}
		// Drain every announcement even after a stop: receiving them
		// all is what guarantees in-flight units have retired before
		// the dropped-error scan below.
		for n := 0; n < announcing; n++ {
			deliver(<-planReady)
		}

	case workers <= 1:
		// Sequential mode interleaves execution and delivery on one
		// goroutine, so a stop takes effect before the next unit runs
		// and nothing is ever in flight when it does.
		for _, j := range jobs {
			if stop.Load() {
				break
			}
			run(j)
			for drained := false; !drained; {
				select {
				case pi := <-planReady:
					deliver(pi)
				default:
					drained = true
				}
			}
		}

	default:
		ch := make(chan job, len(jobs))
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					run(j)
				}
			}()
		}
		for n := 0; n < announcing && next < len(plans); n++ {
			deliver(<-planReady)
		}
		// Joining the workers publishes every in-flight unit's error
		// slot before the dropped-error scan.
		wg.Wait()
	}

	// Surface what fail-fast would otherwise lose: real errors from
	// units that finished after the stop, in plans that were never
	// handed to done.
	var droppedErrs []error
	if cause := context.Cause(ctx); cause != nil {
		droppedErrs = append(droppedErrs, cause)
	}
	for pi, p := range plans {
		if delivered[pi] {
			continue
		}
		for ui, err := range errs[pi] {
			if err == nil || errors.Is(err, ErrSkipped) {
				continue
			}
			droppedErrs = append(droppedErrs, &UnitError{Key: p.Units[ui].Key, Index: ui, Err: err})
		}
	}
	return errors.Join(droppedErrs...)
}

// reduce resolves one plan: the first failed unit in declaration order
// wins (deterministic regardless of which units happened to finish),
// otherwise Reduce assembles the value. A panicking Reduce becomes the
// plan's error, as a panicking unit does in runUnit, so it cannot take
// down the delivery goroutine and every later plan with it.
func reduce(p *Plan, outs []any, errs []error) (o Outcome) {
	for i, err := range errs {
		if err != nil {
			return Outcome{Err: &UnitError{Key: p.Units[i].Key, Index: i, Err: err}}
		}
	}
	if p.Reduce == nil {
		return Outcome{Value: outs}
	}
	defer func() {
		if r := recover(); r != nil {
			o = Outcome{Err: fmt.Errorf("reduce: panic: %v", r)}
		}
	}()
	v, err := p.Reduce(outs)
	return Outcome{Value: v, Err: err}
}

// runUnit executes one unit, converting a panic into an error so a
// logic bug in one replication fails its campaign loudly instead of
// tearing down unrelated ones mid-pool.
func runUnit(u Unit, seed int64) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if u.RunScratch != nil {
		s := scratchPool.Get().(*Scratch)
		// Return the arena even when the unit panics: its buffers are
		// reset before reuse, so a half-written arena is harmless.
		defer scratchPool.Put(s)
		s.Reset()
		return u.RunScratch(seed, s)
	}
	return u.Run(seed)
}

// Derive maps (campaign seed, unit index, unit key) to the unit's
// seed with a SplitMix64 finalizer. Consecutive indices land in
// uncorrelated streams, and hashing the key keeps distinct
// experiments sharing one campaign seed (cmd/repro -exp all) from
// replaying each other's RNG streams when their grids overlap. The
// result is masked non-negative so downstream seed arithmetic
// (seed+1 idioms) stays in range.
func Derive(seed int64, i uint64, key string) int64 {
	// FNV-1a over the key, folded into the SplitMix stream.
	h := uint64(14695981039346656037)
	for _, b := range []byte(key) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	x := uint64(seed) + (i+1)*0x9E3779B97F4A7C15 + h
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x &^ (1 << 63))
}
