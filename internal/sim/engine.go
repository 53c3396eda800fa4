// Package sim provides a deterministic discrete-event simulation engine.
//
// All model time is virtual, expressed in integer nanoseconds (Time). Events
// scheduled for the same instant fire in scheduling order (FIFO), which makes
// every simulation bit-reproducible for a given seed regardless of host
// scheduling or garbage collection — the property that lets this repository
// measure sub-microsecond interrupt effects from Go.
//
// # Event ordering
//
// The queue's total order is (at, pri, seq): virtual time first, then an
// optional caller-assigned priority key, then scheduling order. Ordinary
// events carry pri 0, so for them the order is the classic (at, seq) FIFO.
// The pri key exists for the parallel engine (see Group): events injected
// across shard boundaries carry a globally unique, execution-order-independent
// pri > 0, which makes their position in the total order a pure function of
// the model rather than of which shard scheduled first. The rule "pri 0
// before pri > 0 at equal timestamps" is applied identically by the serial
// and sharded engines, which is one leg of the bit-identical-reports
// guarantee.
//
// # Event ownership and recycling
//
// The engine owns every *Event it returns and recycles fired or cancelled
// events through an internal free list, so steady-state scheduling performs
// no allocation. That gives event handles arena semantics:
//
//   - A handle returned by Schedule/After is valid until its callback starts
//     (or, for cancelled events, until the engine discards them in Step or
//     peek). After that the Event may be reused for a different callback.
//   - Cancel must therefore only be called on events that have not fired.
//     Callers that retain a timer handle must clear it inside the callback
//     (first thing), which every subsystem in this repository does; a Cancel
//     through a stale handle would cancel whatever event now occupies the
//     slot.
//   - Callbacks never receive the firing *Event, so the common pattern
//     "timer = nil at the top of the callback" is all that is required.
//
// # Scheduling
//
// The pending-event queue is a hierarchical timing wheel (see Wheel): a
// 4096-slot level at 1 ns granularity and two 1024-slot levels at ~4 µs
// and ~4.2 ms — sized to the simulation's dominant horizons, wire events a
// few ns..µs out and coalescing timers tens of µs out — with a 4-ary
// overflow heap for events beyond the ~4.3 s level-2 horizon. Scheduling
// is O(1) (bitwise slot placement plus an intrusive list append) and
// dispatch is amortized O(1) (bitmap scans to the next populated slot;
// same-instant bursts drain from the cursor's slot with no rescan, so
// Engine.Step dispatches them back-to-back). Events cascade down at most
// two levels as the clock approaches them. The wheel pops live events in
// the exact (at, pri, seq) total order; the determinism argument lives
// with the Wheel type, and the package tests check the order against an
// independent reference heap.
//
// # Per-packet queues
//
// Every per-packet FIFO of the model — NIC completion rings, core run
// queues, Open-MX event rings, match lists and send windows, switch egress
// queues — is a Queue: one power-of-two ring, O(1) at both ends, with an
// order-preserving RemoveAt for MX matching and no allocation once a queue
// has reached its working depth.
package sim

import (
	"fmt"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time = int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it (e.g. a coalescing timer that is reset when the
// interrupt fires early). See the package comment for the handle lifetime
// rules: an Event is recycled once it fires or its cancellation is observed.
type Event struct {
	at Time
	// pri is the cross-shard priority key: 0 for ordinary events, a
	// globally unique model-derived key for events injected across shard
	// boundaries (see the package comment and Group). It sorts between at
	// and seq in the queue's total order.
	pri uint64
	seq uint64
	fn  func()
	afn func(any)
	arg any
	// next threads the intrusive FIFO of a timing-wheel slot. It is owned
	// by the wheel while the event is queued.
	next      *Event
	cancelled bool
}

// At returns the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Cancel prevents the event's callback from running. Cancelling an event that
// was already cancelled is a no-op. Cancel must not be called on an event
// whose callback has already started: the engine may have recycled it (see
// the package comment).
func (ev *Event) Cancel() { ev.cancelled = true }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the process layer (internal/proc) serializes all access.
type Engine struct {
	now     Time
	wheel   *Wheel
	free    []*Event
	seq     uint64
	stopped bool
	// Executed counts callbacks run, for diagnostics and budget guards.
	Executed uint64
	// Limit, when non-zero, aborts Run with a panic after this many events.
	// It exists to catch runaway protocol loops in tests.
	Limit uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel = newWheel(e)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still scheduled (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return e.wheel.n }

// alloc takes an Event from the free list (or the Go heap when empty) and
// stamps it.
//
//omxlint:hotpath
func (e *Engine) alloc(at Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		//omxlint:allow hotpathalloc: cold-path free-list refill; steady state recycles (guarded by the ZeroAllocSteadyState tests)
		ev = &Event{}
	}
	ev.at = at
	ev.pri = 0
	ev.seq = e.seq
	ev.cancelled = false
	e.seq++
	return ev
}

// release recycles a fired or discarded event. Callback references are
// cleared so the free list never pins driver state for the GC; the next
// link is left stale on purpose — every consumer (list append, alloc)
// overwrites it before use.
//
//omxlint:hotpath
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	//omxlint:allow hotpathalloc: free-list growth is amortized; steady state is append-into-capacity (guarded by the ZeroAllocSteadyState tests)
	e.free = append(e.free, ev)
}

// Schedule runs fn at virtual time at. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	ev := e.alloc(at)
	ev.fn = fn
	e.wheel.push(ev)
	return ev
}

// ScheduleArg runs fn(arg) at virtual time at. It is the allocation-free
// variant of Schedule for hot paths: a long-lived fn (bound once at
// subsystem construction) plus a pointer-typed arg schedule without any
// per-call closure or boxing allocation.
//
//omxlint:hotpath
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	ev := e.alloc(at)
	ev.afn = fn
	ev.arg = arg
	e.wheel.push(ev)
	return ev
}

// ScheduleArgPri is ScheduleArg with an explicit cross-shard priority key
// (see the package comment). The fabric stamps the same model-derived key
// on a message whether the simulation runs on one engine or many, which
// pins the event's position in the (at, pri, seq) total order independently
// of engine count — the scheduling half of the parallel engine's
// bit-identical guarantee.
//
//omxlint:hotpath
func (e *Engine) ScheduleArgPri(at Time, pri uint64, fn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	ev := e.alloc(at)
	ev.pri = pri
	ev.afn = fn
	ev.arg = arg
	e.wheel.push(ev)
	return ev
}

// After runs fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(arg) d nanoseconds from now. Negative d panics.
//
//omxlint:hotpath
func (e *Engine) AfterArg(d Time, fn func(any), arg any) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Step runs the next event, if any, advancing the clock to it. It reports
// whether an event ran. The wheel discards cancelled events internally,
// so every event Step sees is live; same-instant bursts come off the
// wheel's current slot without a queue rescan.
//
//omxlint:hotpath
func (e *Engine) Step() bool {
	ev := e.wheel.popLE(maxHorizon)
	if ev == nil {
		return false
	}
	e.runEvent(ev)
	return true
}

// runEvent advances the clock to a popped event and fires its callback.
//
//omxlint:hotpath
func (e *Engine) runEvent(ev *Event) {
	e.now = ev.at
	e.Executed++
	if e.Limit > 0 && e.Executed > e.Limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%d", e.Limit, e.now))
	}
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	// Recycle only after the callback: handles held by driver state are
	// cleared inside the callback itself, so reuse cannot race them.
	e.release(ev)
}

// Run processes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then sets the clock to t
// (if it is ahead of the last event).
//
//omxlint:hotpath
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		ev := e.wheel.popLE(t)
		if ev == nil {
			break
		}
		e.runEvent(ev)
	}
	if e.now < t {
		e.now = t
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
// Stop is a whole-simulation control and is not supported under the sharded
// Group runtime (no shard can know its peers' progress); harnesses that
// rely on it force Parallelism 1.
func (e *Engine) Stop() { e.stopped = true }

// PeekTime returns the timestamp of the next live event, if any. The Group
// synchronizer calls it between windows (workers parked) to compute the
// cluster-wide minimum next-event time.
func (e *Engine) PeekTime() (Time, bool) {
	ev := e.wheel.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// runWindow processes every event with timestamp <= t but — unlike
// RunUntil — leaves the clock at the last event executed rather than
// advancing it to t. Idle windows therefore leave no trace: after a full
// Group run each shard's clock sits at its own last event, and the maximum
// over shards equals the serial engine's final clock. It also ignores the
// Stop flag (see Stop).
//
//omxlint:hotpath
func (e *Engine) runWindow(t Time) {
	for {
		ev := e.wheel.popLE(t)
		if ev == nil {
			return
		}
		e.runEvent(ev)
	}
}
