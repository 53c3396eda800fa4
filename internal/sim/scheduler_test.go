package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the twin harness's oracle: one binary heap over every
// pending event, ordered by its own (at, pri, seq) comparison rather than
// the wheel's before, so an ordering bug in the production path cannot
// hide on both sides of the comparison. It allocates a fresh Event per
// schedule and never recycles one.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

// refQueue is the container/heap form of the reference event queue.
type refQueue []*Event

func (q refQueue) Len() int      { return len(q) }
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q refQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.pri != b.pri:
		return a.pri < b.pri
	default:
		return a.seq < b.seq
	}
}
func (q *refQueue) Push(x any) { *q = append(*q, x.(*Event)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) add(at Time, pri uint64) *Event {
	if at < r.now {
		panic(fmt.Sprintf("ref: scheduling event at %d before now %d", at, r.now))
	}
	ev := &Event{at: at, pri: pri, seq: r.seq}
	r.seq++
	heap.Push(&r.q, ev)
	return ev
}

func (r *refEngine) Schedule(at Time, fn func()) *Event {
	ev := r.add(at, 0)
	ev.fn = fn
	return ev
}

func (r *refEngine) ScheduleArg(at Time, fn func(any), arg any) *Event {
	return r.ScheduleArgPri(at, 0, fn, arg)
}

func (r *refEngine) ScheduleArgPri(at Time, pri uint64, fn func(any), arg any) *Event {
	ev := r.add(at, pri)
	ev.afn, ev.arg = fn, arg
	return ev
}

func (r *refEngine) After(d Time, fn func()) *Event { return r.Schedule(r.now+d, fn) }

// next removes the minimum live event at or before t, discarding
// cancelled events it meets at the top of the heap.
func (r *refEngine) next(t Time) *Event {
	for len(r.q) > 0 {
		ev := r.q[0]
		if !ev.cancelled && ev.at > t {
			return nil
		}
		heap.Pop(&r.q)
		if !ev.cancelled {
			return ev
		}
	}
	return nil
}

func (r *refEngine) fire(ev *Event) {
	r.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.afn(ev.arg)
	}
}

func (r *refEngine) Step() bool {
	ev := r.next(maxHorizon)
	if ev != nil {
		r.fire(ev)
	}
	return ev != nil
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunUntil(t Time) {
	for ev := r.next(t); ev != nil; ev = r.next(t) {
		r.fire(ev)
	}
	if r.now < t {
		r.now = t
	}
}

// twinEngine is the surface the twin harness drives on both sides.
type twinEngine interface {
	Now() Time
	Pending() int
	Schedule(at Time, fn func()) *Event
	ScheduleArg(at Time, fn func(any), arg any) *Event
	ScheduleArgPri(at Time, pri uint64, fn func(any), arg any) *Event
	After(d Time, fn func()) *Event
	Step() bool
	Run()
	RunUntil(t Time)
}

// twin drives the production Engine and the reference engine with an
// identical operation stream and asserts they fire callbacks in an
// identical order. It is the determinism proof for the timing wheel: the
// wheel must reproduce the (at, pri, seq) total order exactly, including
// same-timestamp FIFO bursts, cross-shard priority keys, cancellations,
// horizon-bounded runs, and events that overflow past the wheels into the
// far-future heap.
type twin struct {
	engines [2]twinEngine
	logs    [2][]string
	pending [2][]*Event // parallel outstanding handles, for cancels
	// due is each handle's timestamp as scheduled. The engine recycles a
	// fired Event, so the handle's own At may already name a later event.
	due []Time
}

func newTwin() *twin {
	return &twin{engines: [2]twinEngine{NewEngine(), &refEngine{}}}
}

// schedule registers the same callback on both engines at now+d. Callbacks
// log "<id>@<time>"; a nested flag schedules a follow-up from inside the
// callback, covering schedule-during-dispatch.
func (tw *twin) schedule(id int, d Time, nested bool) {
	for i, e := range tw.engines {
		i, e := i, e
		ev := e.After(d, func() {
			tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d@%d", id, e.Now()))
			if nested {
				e.After(3, func() {
					tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d.n@%d", id, e.Now()))
				})
				e.Schedule(e.Now(), func() {
					tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d.z@%d", id, e.Now()))
				})
			}
		})
		tw.pending[i] = append(tw.pending[i], ev)
	}
	tw.due = append(tw.due, tw.engines[0].Now()+d)
}

// schedulePri registers the same callback on both engines at now+d
// through ScheduleArgPri, the cross-shard path whose key sorts between the
// timestamp and the scheduling order. Callbacks log "<id>/<pri>@<time>".
func (tw *twin) schedulePri(id int, d Time, pri uint64) {
	for i, e := range tw.engines {
		i, e := i, e
		ev := e.ScheduleArgPri(e.Now()+d, pri, func(any) {
			tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d/%d@%d", id, pri, e.Now()))
		}, nil)
		tw.pending[i] = append(tw.pending[i], ev)
	}
	tw.due = append(tw.due, tw.engines[0].Now()+d)
}

// cancel cancels the k-th tracked handle on both engines. Handles may have
// fired already in model terms; the harness only cancels handles it has not
// observed firing, mirroring the engine's reuse contract, by dropping
// handles once their timestamp passes.
func (tw *twin) cancel(k int) {
	for i := range tw.engines {
		if k < len(tw.pending[i]) && tw.pending[i][k] != nil {
			tw.pending[i][k].Cancel()
			tw.pending[i][k] = nil
		}
	}
}

// expire drops tracked handles due at or before the clock so cancel never
// touches a possibly-recycled event.
func (tw *twin) expire() {
	now := tw.engines[0].Now()
	for k, at := range tw.due {
		if at <= now {
			tw.pending[0][k], tw.pending[1][k] = nil, nil
		}
	}
}

func (tw *twin) compare(t *testing.T) {
	t.Helper()
	if tw.engines[0].Now() != tw.engines[1].Now() {
		t.Fatalf("clocks diverged: engine %d vs reference %d", tw.engines[0].Now(), tw.engines[1].Now())
	}
	if len(tw.logs[0]) != len(tw.logs[1]) {
		t.Fatalf("fired %d events on the engine vs %d on the reference", len(tw.logs[0]), len(tw.logs[1]))
	}
	for k := range tw.logs[0] {
		if tw.logs[0][k] != tw.logs[1][k] {
			t.Fatalf("dispatch order diverged at event %d: engine %q vs reference %q",
				k, tw.logs[0][k], tw.logs[1][k])
		}
	}
}

// TestSchedulerEquivalenceRandom is the randomized differential harness:
// many rounds of mixed Schedule/After/ScheduleArgPri/Cancel/Step/RunUntil
// traffic with delay scales chosen to exercise every wheel level and the
// overflow heap.
func TestSchedulerEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			tw := newTwin()
			id := 0
			// Delay scales: same-instant, sub-µs (level 0), tens of µs
			// (level 1), tens of ms (level 2), and > level-2 horizon
			// (overflow heap).
			scales := []int64{0, 1 << 6, 1 << 14, 1 << 25, 1 << 37}
			// Cross-shard keys: pri 0 plus a few keys, drawn with
			// repetition so equal (at, pri) pairs fall back to seq.
			pris := []uint64{0, 1, 2, 5}
			for round := 0; round < 400; round++ {
				switch r.Intn(11) {
				case 0, 1, 2, 3: // schedule a burst (bursts hit same-ts FIFO)
					n := 1 + r.Intn(4)
					scale := scales[r.Intn(len(scales))]
					var d Time
					if scale > 0 {
						d = Time(r.Int63n(scale))
					}
					for j := 0; j < n; j++ {
						id++
						tw.schedule(id, d, r.Intn(8) == 0)
					}
				case 4: // t=0-style burst at the exact current instant
					id++
					tw.schedule(id, 0, false)
				case 5: // cancel a random tracked handle
					if n := len(tw.pending[0]); n > 0 {
						tw.cancel(r.Intn(n))
					}
				case 6, 7: // step a few events
					for j := r.Intn(5); j >= 0; j-- {
						tw.engines[0].Step()
						tw.engines[1].Step()
					}
					tw.expire()
				case 8: // bounded run to a shared horizon
					d := Time(r.Int63n(scales[r.Intn(len(scales)-1)+1]))
					horizon := tw.engines[0].Now() + d
					tw.engines[0].RunUntil(horizon)
					tw.engines[1].RunUntil(horizon)
					tw.expire()
				case 9: // drain completely
					tw.engines[0].Run()
					tw.engines[1].Run()
					tw.pending[0] = tw.pending[0][:0]
					tw.pending[1] = tw.pending[1][:0]
					tw.due = tw.due[:0]
				case 10: // same-instant burst mixing pri keys with plain events
					n := 2 + r.Intn(5)
					scale := scales[r.Intn(len(scales))]
					var d Time
					if scale > 0 {
						d = Time(r.Int63n(scale))
					}
					for j := 0; j < n; j++ {
						id++
						if r.Intn(4) == 0 {
							tw.schedule(id, d, false)
						} else {
							tw.schedulePri(id, d, pris[r.Intn(len(pris))])
						}
					}
				}
			}
			tw.engines[0].Run()
			tw.engines[1].Run()
			tw.compare(t)
			if p0, p1 := tw.engines[0].Pending(), tw.engines[1].Pending(); p0 != 0 || p1 != 0 {
				t.Fatalf("events left after drain: engine %d, reference %d", p0, p1)
			}
		})
	}
}

// TestSchedulerEquivalenceSameInstantStorm hammers the one ordering rule a
// calendar queue most easily gets wrong: large same-timestamp bursts mixed
// across Schedule and ScheduleArg, scheduled from different epochs.
func TestSchedulerEquivalenceSameInstantStorm(t *testing.T) {
	tw := newTwin()
	const at = 1 << 20 // lives at level 1/2 when scheduled from t=0
	for id := 1; id <= 64; id++ {
		id := id
		for i, e := range tw.engines {
			i, e := i, e
			if id%2 == 0 {
				e.Schedule(at, func() { tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d@%d", id, e.Now())) })
			} else {
				e.ScheduleArg(at, func(any) { tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d@%d", id, e.Now())) }, nil)
			}
		}
	}
	// A later event at the same instant scheduled after time has advanced
	// close to the target (exercises direct level-0 placement behind the
	// earlier level-1 copies).
	for i, e := range tw.engines {
		i, e := i, e
		e.Schedule(at-5, func() {
			e.Schedule(at, func() { tw.logs[i] = append(tw.logs[i], fmt.Sprintf("late@%d", e.Now())) })
		})
	}
	tw.engines[0].Run()
	tw.engines[1].Run()
	tw.compare(t)
}

// TestWheelOverflowReanchor pins the heap->wheel demotion path: events far
// beyond the level-2 horizon must come back in exact order, including
// same-timestamp FIFO and interleaved near-term events.
func TestWheelOverflowReanchor(t *testing.T) {
	tw := newTwin()
	far := Time(1) << 40 // well past the level-2 horizon
	for id := 1; id <= 10; id++ {
		tw.schedule(id, far+Time(id%3)*1000, false)
	}
	for id := 11; id <= 20; id++ {
		tw.schedule(id, Time(id)*777, false)
	}
	tw.engines[0].Run()
	tw.engines[1].Run()
	tw.compare(t)
}

// TestWheelCancelAcrossLevels cancels events parked at every level and in
// the overflow heap, then verifies the survivors' order and that the
// cancelled events are all discarded (Pending drains to zero).
func TestWheelCancelAcrossLevels(t *testing.T) {
	tw := newTwin()
	delays := []Time{5, 100, 1 << 13, 1 << 20, 1 << 30, 1 << 40}
	id := 0
	for _, d := range delays {
		id++
		tw.schedule(id, d, false) // survivor
		id++
		tw.schedule(id, d, false) // cancelled below
		tw.cancel(len(tw.pending[0]) - 1)
	}
	tw.engines[0].Run()
	tw.engines[1].Run()
	tw.compare(t)
	if got := len(tw.logs[0]); got != len(delays) {
		t.Fatalf("fired %d events, want %d survivors", got, len(delays))
	}
	if p := tw.engines[0].Pending(); p != 0 {
		t.Fatalf("wheel Pending = %d after full drain", p)
	}
}

// TestWheelRunUntilHorizonThenEarlierSchedule pins the peek/popLE safety
// property: probing far past the next event must not let a later push land
// behind the wheel's cursor state. RunUntil stops short, a new earlier
// event arrives, and it must still fire first.
func TestWheelRunUntilHorizonThenEarlierSchedule(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		e := NewEngine()
		var got []Time
		log := func() { got = append(got, e.Now()) }
		e.Schedule(1<<21, log) // parked at a high level
		e.RunUntil(1 << 18)    // probes far ahead, fires nothing
		if e.Now() != 1<<18 {
			t.Fatalf("Now = %d after RunUntil", e.Now())
		}
		e.Schedule(1<<18+5, log) // earlier than the parked event
		e.Run()
		want := []Time{1<<18 + 5, 1 << 21}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	})
}

// The zero-allocation guarantee must hold on the wheel's cascade and
// cancel paths too. Level-0-only traffic is covered by the engine tests;
// this exercises timers that park at level 1/2 and a cancel+discard
// cycle, in steady state. The subtest is named after the scheduler that
// backs NewEngine.
func TestSchedulersZeroAllocSteadyState(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		e := NewEngine()
		fn := func() {}
		for i := 0; i < 64; i++ { // warm free list and structures
			e.After(Time(i)*30000, fn)
		}
		for e.Step() {
		}
		if got := testing.AllocsPerRun(1000, func() {
			e.After(40000, fn) // parks at level 1, cascades on pop
			e.After(3, fn)
			e.Step()
			e.Step()
		}); got != 0 {
			t.Fatalf("cross-level Schedule+Step allocates %v objects/op in steady state, want 0", got)
		}
		if got := testing.AllocsPerRun(1000, func() {
			e.After(50000, fn).Cancel()
			e.After(1, fn)
			e.Step()
			e.RunUntil(e.Now() + 60000) // discards the cancelled timer
		}); got != 0 {
			t.Fatalf("cancel+discard allocates %v objects/op in steady state, want 0", got)
		}
	})
}

// BenchmarkSchedulers runs a mixed-horizon workload: mostly near events
// plus a rotating coalescing-style timer population, the shape of the
// simulator's real queues.
func BenchmarkSchedulers(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%900), fn)
		if i%8 == 0 {
			e.After(75000, fn)
		}
		if i%2 == 1 {
			e.Step()
		}
	}
	for e.Step() {
	}
}

// TestWheelHorizonIntoOverflowEpoch is the regression test for a cursor
// commit that crosses into the overflow minimum's top-level epoch: a
// RunUntil horizon inside that epoch (but before the parked event) must not
// reroute later pushes around the heap. Before the clamp in popLE's
// overflow guard, the wheel fired these events out of order and drove the
// clock backwards.
func TestWheelHorizonIntoOverflowEpoch(t *testing.T) {
	const topSpan = Time(1) << topShift
	t.Run("wheel", func(t *testing.T) {
		e := NewEngine()
		var got []Time
		log := func() { got = append(got, e.Now()) }
		first := topSpan + topSpan/4 // overflow-heap resident
		e.Schedule(first, log)
		e.RunUntil(topSpan + topSpan/8)  // horizon inside first's top epoch
		e.Schedule(first+topSpan/8, log) // later event, same top epoch
		e.Run()
		if len(got) != 2 || got[0] != first || got[1] != first+topSpan/8 {
			t.Fatalf("fired at %v, want [%d %d]", got, first, first+topSpan/8)
		}
	})
}
