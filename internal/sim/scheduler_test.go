package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the twin harness's oracle: one binary heap over every
// pending event, ordered by the (at, pri, seq) each entry records for
// itself rather than by the wheel's before or any Event field, so an
// ordering bug in the production path cannot hide on both sides of the
// comparison. Each schedule makes a fresh entry, and a fresh Event that
// serves only as the caller's cancel handle; neither is ever recycled.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

// refEntry is one pending event of the reference engine.
type refEntry struct {
	at  Time
	pri uint64
	seq uint64
	afn func(any)
	arg any
	h   *Event // the handle returned to the caller, for Cancel
}

// refQueue is the container/heap form of the reference event queue.
type refQueue []*refEntry

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
func (q *refQueue) Push(x any) { *q = append(*q, x.(*refEntry)) }
func (q *refQueue) Pop() any {
	old := *q
	ent := old[len(old)-1]
	*q = old[:len(old)-1]
	return ent
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) Schedule(at Time, fn func()) *Event {
	return r.ScheduleArgPri(at, 0, func(any) { fn() }, nil)
}

func (r *refEngine) ScheduleArg(at Time, fn func(any), arg any) *Event {
	return r.ScheduleArgPri(at, 0, fn, arg)
}

func (r *refEngine) ScheduleArgPri(at Time, pri uint64, fn func(any), arg any) *Event {
	if at < r.now {
		panic(fmt.Sprintf("ref: scheduling event at %d before now %d", at, r.now))
	}
	ent := &refEntry{at: at, pri: pri, seq: r.seq, afn: fn, arg: arg, h: &Event{afn: fn}}
	r.seq++
	heap.Push(&r.q, ent)
	return ent.h
}

func (r *refEngine) After(d Time, fn func()) *Event { return r.Schedule(r.now+d, fn) }

// next removes the minimum live entry at or before t, discarding
// cancelled entries it meets at the top of the heap.
func (r *refEngine) next(t Time) *refEntry {
	for len(r.q) > 0 {
		ent := r.q[0]
		live := !ent.h.Cancelled()
		if live && ent.at > t {
			return nil
		}
		heap.Pop(&r.q)
		if live {
			return ent
		}
	}
	return nil
}

func (r *refEngine) fire(ent *refEntry) {
	r.now = ent.at
	ent.afn(ent.arg)
}

func (r *refEngine) Step() bool {
	ent := r.next(maxHorizon)
	if ent != nil {
		r.fire(ent)
	}
	return ent != nil
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunUntil(t Time) {
	for ent := r.next(t); ent != nil; ent = r.next(t) {
		r.fire(ent)
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
			// Delay scales: same-instant, within one level-0 slot (or
			// into the next), a few level-0 slots, level 0's whole span,
			// level 1, level 2, and past the level-2 horizon (overflow
			// heap).
			scales := []int64{0, 1 << l0Shift, 1 << (l0Shift + 6), 1 << l1Shift,
				1 << (l1Shift + 4), 1 << (l2Shift + 4), 1 << (topShift + 3)}
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
	const at = 4 << l1Shift // lives at level 1 when scheduled from t=0
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
	far := Time(1) << (topShift + 2) // well past the level-2 horizon
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
	// Scheduled from t=0: two delays in level 0's first slot, then level
	// 0's next slot and far end, levels 1 and 2, and the overflow heap
	// (level index wheelLevels).
	delays := []struct {
		d     Time
		level int
	}{
		{5, 0},
		{1<<l0Shift - 3, 0},
		{1<<l0Shift + 5, 0},
		{1<<l1Shift - 7, 0},
		{1 << (l1Shift + 2), 1},
		{1 << (l2Shift + 2), 2},
		{1 << (topShift + 2), wheelLevels},
	}
	id := 0
	for _, c := range delays {
		id++
		tw.schedule(id, c.d, false) // survivor
		if got := parkedLevel(&tw.engines[0].(*Engine).wheel, tw.pending[0][len(tw.pending[0])-1]); got != c.level {
			t.Fatalf("delay %d parked at level %d, want %d", c.d, got, c.level)
		}
		id++
		tw.schedule(id, c.d, false) // cancelled below
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
// event arrives, and it must still fire first. The horizon falls on a
// level-1 slot boundary in one case and inside a level-0 slot, with the
// earlier event in that same slot, in the other.
func TestWheelRunUntilHorizonThenEarlierSchedule(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		parked := Time(1) << (l1Shift + 3) // level 1 from t=0
		for _, horizon := range []Time{1 << (l1Shift + 1), 1<<(l1Shift+1) + 1<<l0Shift + 17} {
			e := NewEngine()
			var got []Time
			log := func() { got = append(got, e.Now()) }
			ev := e.Schedule(parked, log)
			if l := parkedLevel(&e.wheel, ev); l != 1 {
				t.Fatalf("event at %d parked at level %d, want 1", parked, l)
			}
			e.RunUntil(horizon) // probes far ahead, fires nothing
			if e.Now() != horizon {
				t.Fatalf("Now = %d after RunUntil(%d)", e.Now(), horizon)
			}
			e.Schedule(horizon+5, log) // earlier than the parked event
			e.Run()
			want := []Time{horizon + 5, parked}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("horizon %d: fired at %v, want %v", horizon, got, want)
			}
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
		// span0 is level 0's span: an event at least this far ahead of
		// the clock parks at level 1 or above.
		const span0 = Time(1) << l1Shift
		e := NewEngine()
		fn := func() {}
		for i := 0; i < 64; i++ { // warm free list and structures
			e.After(Time(i)*span0/8, fn)
		}
		for e.Step() {
		}
		if l := parkedLevel(&e.wheel, e.After(span0+span0/4, fn)); l != 1 {
			t.Fatalf("timer 1.25 level-0 spans out parked at level %d, want 1", l)
		}
		for e.Step() {
		}
		if got := testing.AllocsPerRun(1000, func() {
			e.After(span0+span0/4, fn) // parks at level 1
			e.After(3, fn)
			e.Step()
			e.Step()
		}); got != 0 {
			t.Fatalf("cross-level Schedule+Step allocates %v objects/op in steady state, want 0", got)
		}
		if got := testing.AllocsPerRun(1000, func() {
			e.After(span0+span0/4, fn).Cancel()
			e.After(1, fn)
			e.Step()
			e.RunUntil(e.Now() + span0 + span0/2) // discards the cancelled timer
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
