package sim

// Differential property test: the optimized kernel (pooled slots,
// monomorphic 4-ary heap, lazy-deletion compaction, fire-and-forget
// FnID lane) against a retained reference implementation — the
// straightforward container/heap kernel the package started from.
// Both run identical randomized schedule/cancel/reschedule/run
// scripts; every observable must match: fire order, fire timestamps,
// FiredEvents, the clock, and the pending count (which doubles as the
// O(n)-scan oracle for the kernel's O(1) Pending counter). Scripts
// include firings that schedule zero to three successors and firings
// that cancel enough events to compact the queue while their own entry
// still holds the root (the in-place fire path).

import (
	"container/heap"
	"math/rand"
	"testing"
)

// --- reference implementation (pre-optimization design, retained) ---

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*q = old[:n]
	return e
}

type refKernel struct {
	now   Time
	seq   uint64
	fired uint64
	q     refQueue
}

func (k *refKernel) at(t Time, fn func()) *refEvent {
	e := &refEvent{at: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.q, e)
	return e
}

func (k *refKernel) step() bool {
	for len(k.q) > 0 {
		e := heap.Pop(&k.q).(*refEvent)
		if e.canceled {
			continue
		}
		k.now = e.at
		k.fired++
		e.fn()
		return true
	}
	return false
}

func (k *refKernel) runUntil(t Time) {
	for len(k.q) > 0 {
		e := k.q[0]
		if e.at > t {
			break
		}
		heap.Pop(&k.q)
		if e.canceled {
			continue
		}
		k.now = e.at
		k.fired++
		e.fn()
	}
	k.now = t
}

func (k *refKernel) run() {
	for k.step() {
	}
}

func (k *refKernel) pending() int {
	n := 0
	for _, e := range k.q {
		if !e.canceled {
			n++
		}
	}
	return n
}

// --- a common driver API over both kernels ---

// kernelAPI is the observable surface the differential driver
// exercises. schedule returns a cancel thunk so the driver can issue
// cancels and reschedules without knowing which kernel it holds.
type kernelAPI interface {
	now() Time
	schedule(d float64, fn func()) (cancel func())
	post(d float64, fn func()) // fire-and-forget lane
	runUntil(t Time)
	step() bool
	run()
	fired() uint64
	pending() int
}

type optAPI struct{ k *Kernel }

func (a optAPI) now() Time { return a.k.Now() }
func (a optAPI) schedule(d float64, fn func()) func() {
	h := a.k.After(d, fn)
	return h.Cancel
}
func (a optAPI) post(d float64, fn func()) { a.k.PostAfter(d, a.k.Register(fn)) }
func (a optAPI) runUntil(t Time)           { a.k.RunUntil(t) }
func (a optAPI) step() bool                { return a.k.Step() }
func (a optAPI) run()                      { a.k.Run() }
func (a optAPI) fired() uint64             { return a.k.FiredEvents() }
func (a optAPI) pending() int              { return a.k.Pending() }

type refAPI struct{ k *refKernel }

func (a refAPI) now() Time { return a.k.now }
func (a refAPI) schedule(d float64, fn func()) func() {
	e := a.k.at(a.k.now+Time(d), fn)
	return func() { e.canceled = true }
}
func (a refAPI) post(d float64, fn func()) { a.k.at(a.k.now+Time(d), fn) }
func (a refAPI) runUntil(t Time)           { a.k.runUntil(t) }
func (a refAPI) step() bool                { return a.k.step() }
func (a refAPI) run()                      { a.k.run() }
func (a refAPI) fired() uint64             { return a.k.fired }
func (a refAPI) pending() int              { return a.k.pending() }

// --- the op script and its interpreter ---

// op is one scripted action. Delays derive from small non-negative
// byte-sized fields so fuzz inputs map onto valid schedules.
type op struct {
	kind byte
	a, b byte
}

type firing struct {
	id int
	at Time
}

// applyOps drives one kernel through the script and returns everything
// observable: the exact (id, timestamp) fire sequence, plus
// (fired, now, pending) snapshots taken after every op and at the end.
func applyOps(api kernelAPI, ops []op) (log []firing, snaps []uint64) {
	nextID := 0
	var cancels []func()
	record := func(id int) func() {
		return func() { log = append(log, firing{id: id, at: api.now()}) }
	}
	snapshot := func() {
		snaps = append(snaps, api.fired(), uint64(api.pending()), uint64(int64(api.now()*1e6)))
	}
	for _, o := range ops {
		delay := float64(o.a)*0.5 + float64(o.b)*0.01
		switch o.kind % numOpKinds {
		case 0: // cancellable schedule
			id := nextID
			nextID++
			cancels = append(cancels, api.schedule(delay, record(id)))
		case 1: // fire-and-forget schedule
			id := nextID
			nextID++
			api.post(delay, record(id))
		case 2: // chained: firing schedules a follow-up during the run
			id := nextID
			nextID += 2
			api.post(delay, func() {
				log = append(log, firing{id: id, at: api.now()})
				api.post(float64(o.b)*0.25, record(id+1))
			})
		case 3: // cancel one tracked handle (possibly already spent)
			if len(cancels) > 0 {
				cancels[int(o.a)%len(cancels)]()
			}
		case 4: // reschedule: cancel a handle, schedule a replacement
			if len(cancels) > 0 {
				i := int(o.a) % len(cancels)
				cancels[i]()
				id := nextID
				nextID++
				cancels[i] = api.schedule(delay, record(id))
			}
		case 5: // advance the clock through a bounded window
			api.runUntil(api.now() + Time(delay))
		case 6: // single step
			api.step()
		case 7: // fan-out: firing posts zero to three follow-ups
			id := nextID
			nextID += 4
			api.post(delay, func() {
				log = append(log, firing{id: id, at: api.now()})
				for i := 0; i < int(o.b)%4; i++ {
					api.post(float64(i)*0.5+float64(o.a%3)*0.25, record(id+1+i))
				}
			})
		case 8: // cancel storm inside a firing
			// A batch of cancellable events, then a trigger that fires
			// before them and cancels seven in eight of them before it
			// schedules anything: the queue compacts while the fired
			// trigger still holds the root. It then schedules zero to
			// two cancellable events that later ops may cancel.
			id := nextID
			n := compactMinHeap + int(o.a)%32
			nextID += 1 + n + 2
			batch := make([]func(), n)
			for i := range batch {
				batch[i] = api.schedule(delay+1+float64(i)*0.125, record(id+1+i))
			}
			api.post(delay, func() {
				log = append(log, firing{id: id, at: api.now()})
				for i, cancel := range batch {
					if i%8 != 0 {
						cancel()
					}
				}
				for i := 0; i < int(o.b)%3; i++ {
					cancels = append(cancels, api.schedule(float64(i)*0.25, record(id+1+n+i)))
				}
			})
		}
		snapshot()
	}
	api.run()
	snapshot()
	return log, snaps
}

// runDifferential asserts both kernels observe identical behavior on
// one script.
func runDifferential(t *testing.T, ops []op) {
	t.Helper()
	optLog, optSnaps := applyOps(optAPI{k: &Kernel{}}, ops)
	refLog, refSnaps := applyOps(refAPI{k: &refKernel{}}, ops)
	if len(optLog) != len(refLog) {
		t.Fatalf("fired %d events, reference fired %d", len(optLog), len(refLog))
	}
	for i := range optLog {
		if optLog[i] != refLog[i] {
			t.Fatalf("firing %d: optimized (id=%d at=%v), reference (id=%d at=%v)",
				i, optLog[i].id, optLog[i].at, refLog[i].id, refLog[i].at)
		}
	}
	if len(optSnaps) != len(refSnaps) {
		t.Fatalf("snapshot count %d vs %d", len(optSnaps), len(refSnaps))
	}
	for i := range optSnaps {
		if optSnaps[i] != refSnaps[i] {
			t.Fatalf("snapshot %d (fired/pending/now triples): optimized %d, reference %d",
				i, optSnaps[i], refSnaps[i])
		}
	}
}

// numOpKinds is the number of op kinds applyOps interprets.
const numOpKinds = 9

// randomOps generates a seeded script. Cancel-heavy mixes push the
// optimized kernel across its compaction threshold.
func randomOps(seed int64, n int, cancelHeavy bool) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		kind := byte(rng.Intn(numOpKinds))
		if cancelHeavy && rng.Intn(3) != 0 {
			kind = []byte{0, 3, 4, 8}[rng.Intn(4)] // schedule/cancel/reschedule/storm only
		}
		ops[i] = op{kind: kind, a: byte(rng.Intn(256)), b: byte(rng.Intn(256))}
	}
	return ops
}

// TestDifferentialSeeded is the seeded table: mixed scripts and
// cancel-heavy scripts (which force lazy-deletion compaction) across a
// spread of seeds and sizes.
func TestDifferentialSeeded(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		runDifferential(t, randomOps(seed, 400, false))
		runDifferential(t, randomOps(seed, 400, true))
	}
	// Long cancel-heavy script: hundreds of live entries, repeated
	// compactions.
	runDifferential(t, randomOps(99, 3000, true))
}

// TestDifferentialTieBreak pins the tricky hand-written cases:
// simultaneous events, cancel-then-fire at the same timestamp, and
// zero-delay chains.
func TestDifferentialTieBreak(t *testing.T) {
	cases := [][]op{
		// Five simultaneous events scheduled in sequence.
		{{0, 10, 0}, {1, 10, 0}, {0, 10, 0}, {1, 10, 0}, {2, 10, 0}},
		// Schedule three at t, cancel the middle, run.
		{{0, 4, 0}, {0, 4, 0}, {0, 4, 0}, {3, 1, 0}},
		// Zero-delay chains firing at the current instant.
		{{2, 0, 0}, {2, 0, 0}, {6, 0, 0}, {2, 0, 0}},
		// Reschedule to an earlier-than-original delay, then step.
		{{0, 200, 0}, {0, 100, 0}, {4, 0, 3}, {6, 0, 0}, {6, 0, 0}},
		// runUntil landing exactly on an event's timestamp.
		{{0, 2, 0}, {5, 2, 0}, {0, 2, 0}, {5, 2, 0}},
		// Firings that post zero, one, two and three follow-ups, at
		// the firing's own instant and later, run by step and run.
		{{7, 0, 0}, {7, 0, 1}, {7, 0, 2}, {7, 3, 3}, {6, 0, 0}, {6, 0, 0}},
		// A cancel storm alone: the queue holds just the batch and the
		// trigger, so compaction runs mid-firing with the fired
		// trigger at the root, which then schedules nothing; the same
		// with two follow-ups, stepped through.
		{{8, 0, 0}},
		{{8, 0, 2}, {6, 0, 0}, {6, 0, 0}, {3, 0, 0}},
	}
	for _, ops := range cases {
		runDifferential(t, ops)
	}
}

// FuzzDifferential decodes arbitrary bytes into an op script (3 bytes
// per op) and requires both kernels to agree.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 5, 5, 3, 0, 0, 5, 20, 0})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 6, 0, 0})
	f.Add([]byte{7, 0, 3, 8, 0, 2, 6, 0, 0, 3, 1, 0})
	for seed := int64(1); seed <= 3; seed++ {
		ops := randomOps(seed, 64, seed == 2)
		buf := make([]byte, 0, len(ops)*3)
		for _, o := range ops {
			buf = append(buf, o.kind, o.a, o.b)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			return // bound script length
		}
		var ops []op
		for i := 0; i+2 < len(data); i += 3 {
			ops = append(ops, op{kind: data[i], a: data[i+1], b: data[i+2]})
		}
		runDifferential(t, ops)
	})
}
