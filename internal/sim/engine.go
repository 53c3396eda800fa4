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
// events through a free list threaded through the events themselves, so
// steady-state scheduling performs no allocation. An event's callback is
// its only liveness mark: Cancel and recycling both clear it, with its
// argument, and the wheel discards events whose callback is nil. That
// gives event handles arena semantics:
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
// 4096-slot level of 64 ns slots spanning ~262 µs and two 1024-slot
// levels of ~262 µs and ~268 ms slots — sized to the simulation's
// dominant horizons, wire events a few ns..µs out and coalescing timers
// tens of µs out, so 93–96% of events are filed once at level 0 — with
// a 4-ary overflow heap for events beyond the ~275 s level-2 horizon.
// Each level-0 slot keeps its events sorted in (at, pri, seq) order;
// scheduling is O(1) for in-order arrivals (bitwise slot placement plus an
// intrusive list append) and dispatch is amortized O(1) (bitmap scans to
// the next populated slot; a slot drains head-first with no rescan, so
// Engine.Step dispatches its events back-to-back). Events cascade down at
// most two levels as the clock approaches them. The wheel pops live events
// in the exact (at, pri, seq) total order; the determinism argument lives
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
	"runtime"
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
//
// An Event is 64 bytes, one cache line, so filing, popping and firing it
// touches one line of the event itself.
type Event struct {
	at Time
	// pri is the cross-shard priority key: 0 for ordinary events, a
	// globally unique model-derived key for events injected across shard
	// boundaries (see the package comment and Group). It sorts between at
	// and seq in the queue's total order.
	pri uint64
	seq uint64
	// afn(arg) is the callback; Schedule stores callFunc with the func()
	// as arg. A nil afn marks an event cancelled or recycled.
	afn func(any)
	arg any
	// next and prev thread the intrusive list of a timing-wheel slot (a
	// list's head keeps its tail in prev; see evList) while the event is
	// queued, and next threads the engine's free list once it is recycled.
	next, prev *Event
}

// At returns the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancelled reports whether the event's callback will no longer run: it
// was cancelled, or it fired and was recycled.
func (ev *Event) Cancelled() bool { return ev.afn == nil }

// Cancel prevents the event's callback from running and drops its
// argument. Cancelling an event that was already cancelled is a no-op.
// Cancel must not be called on an event whose callback has already
// started: the engine may have recycled it (see the package comment).
func (ev *Event) Cancel() { ev.afn, ev.arg = nil, nil }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; the process layer (internal/proc) serializes all access.
type Engine struct {
	now     Time
	free    *Event // recycled events, linked through Event.next
	seq     uint64
	stopped bool
	// Executed counts callbacks run, for diagnostics and budget guards.
	Executed uint64
	// Limit, when non-zero, aborts Run with a panic after this many events.
	// It exists to catch runaway protocol loops in tests.
	Limit uint64
	wheel Wheel
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.wheel.eng = e
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events still scheduled (including cancelled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return e.wheel.n }

// schedule takes an Event from the free list (or the Go heap when empty),
// stamps it and files it. Scheduling in the past panics: it is always a
// model bug. So does a nil callback, which would read as cancelled.
//
//omxlint:hotpath
func (e *Engine) schedule(at Time, pri uint64, afn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	if afn == nil {
		panic("sim: nil callback")
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
	} else {
		//omxlint:allow hotpathalloc: cold-path free-list refill; steady state recycles (guarded by the ZeroAllocSteadyState tests)
		ev = &Event{}
	}
	ev.at, ev.pri, ev.seq, ev.afn, ev.arg = at, pri, e.seq, afn, arg
	e.seq++
	e.wheel.push(ev)
	return ev
}

// release recycles a fired or discarded event onto the free list. The
// callback and its argument are cleared so the free list never pins
// driver state for the GC; prev is left stale on purpose — every consumer
// (list append, ordered insert) overwrites it before use.
//
//omxlint:hotpath
func (e *Engine) release(ev *Event) {
	ev.afn, ev.arg = nil, nil
	ev.next, e.free = e.free, ev
}

// callFunc is the callback of every Schedule/After event: its argument is
// the func() to run. A func value converts to any without allocating.
//
//omxlint:hotpath
func callFunc(fn any) { fn.(func())() }

// Schedule runs fn at virtual time at. Scheduling in the past panics: it is
// always a model bug.
func (e *Engine) Schedule(at Time, fn func()) *Event { return e.schedule(at, 0, callFunc, fn) }

// ScheduleArg runs fn(arg) at virtual time at. It is the allocation-free
// variant of Schedule for hot paths: a long-lived fn (bound once at
// subsystem construction) plus a pointer-typed arg schedule without any
// per-call closure or boxing allocation. A nil fn panics here, not when
// the event would fire.
//
//omxlint:hotpath
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) *Event {
	return e.schedule(at, 0, fn, arg)
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
	return e.schedule(at, pri, fn, arg)
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

// yieldEvery is how many events the engine runs between trips into the Go
// scheduler (see runEvent).
const yieldEvery = 4096

// runEvent advances the clock to a popped event and fires its callback.
//
//omxlint:hotpath
func (e *Engine) runEvent(ev *Event) {
	e.now = ev.at
	e.Executed++
	if e.Limit > 0 && e.Executed > e.Limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%d", e.Limit, e.now))
	}
	// At GOMAXPROCS 1 the GC's background mark worker runs only when the
	// scheduler is entered, and rank handoffs are iter.Pull coroutine
	// switches that never enter it. Without this yield, marking falls to
	// allocation assists and the write-barrier window stretches, which
	// slows every event run while a cycle is in progress.
	if e.Executed%yieldEvery == 0 {
		runtime.Gosched()
	}
	ev.afn(ev.arg)
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
