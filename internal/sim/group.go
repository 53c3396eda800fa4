package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Group is the conservative parallel (PDES) runtime: it drives a set of
// shard engines through barrier-synchronized windows so that a multi-core
// run executes the exact same event sequence as a single engine would.
//
// # Protocol
//
// The Group uses the barrier-window ("synchronous"/YAWNS-style) variant of
// conservative synchronization rather than null messages: the shard count
// is small (<= NumCPU) and the lookahead is a single global constant (the
// fabric's fixed wire propagation + switch forwarding delay), so one
// cluster-wide reduction per window is cheaper and simpler than O(P²)
// per-pair null-message bookkeeping. Each round:
//
//  1. With every worker parked at the barrier, the coordinator injects all
//     cross-shard messages produced in the previous window (the flush
//     hook), then computes tmin = min over shards of the next event time.
//  2. Every shard — in parallel, one goroutine each — executes all of its
//     events in the window [tmin, tmin+L-1], where L is the lookahead.
//  3. Barrier; repeat until no shard has events and the flush injects
//     nothing.
//
// Windows are hundreds of nanoseconds of virtual time and a typical run has
// tens of thousands of them, so the barrier is a spin barrier on atomic
// counters (with a Gosched fallback for oversubscribed hosts), not a
// channel or sync.Cond rendezvous — a microsecond-scale barrier would eat
// the entire parallel speedup. The caller's goroutine acts as the
// coordinator and runs shard 0; P-1 workers run the rest and live only for
// the duration of one Run/RunUntil call.
//
// # Correctness (no causality violation)
//
// A shard executing an event at u < tmin+L can only affect another shard
// through a cross-shard message, and the model guarantees (the fabric's
// lookahead contract) that such a message is timestamped at >= u + L >=
// tmin + L — strictly beyond the window every shard is executing. Messages
// from the previous window were injected at step 1 before tmin was
// computed. So when a shard executes its window it already holds every
// event it will ever receive for that window: no straggler can arrive in a
// shard's past.
//
// # Determinism (bit-identical to the serial engine)
//
// Within a shard, events execute in (at, pri, seq) order — the engine's
// total order. Cross-shard messages carry a pri key that is a pure function
// of the model (source port identity and per-port message ordinal), not of
// execution interleaving, and the serial engine stamps the identical key on
// the identical message. The argument is an induction on windows over the
// per-shard projections of the event history:
//
//   - Same inputs, same window: by induction each shard enters window k
//     having executed exactly the events the serial engine executed for
//     that shard's nodes before tmin(k) (base case: identical initial
//     events). tmin(k) itself is then equal in both runs.
//   - Same order within the window: a shard's window events are totally
//     ordered by (at, pri, seq). Local events (pri 0) were scheduled by the
//     shard's own execution, whose seq stamps match the serial run's
//     relative order by the induction hypothesis; injected events (pri > 0)
//     are ordered among themselves and against locals purely by (at, pri),
//     because two distinct injected events never share (at, pri) — pri
//     embeds the source port and a per-port counter — and a pri-0 local
//     never ties with a pri>0 injectee. seq is only ever the tie-breaker
//     for same-shard scheduling, exactly as in the serial run.
//   - Therefore every shard executes, for its own nodes, the same events in
//     the same relative order with the same clock readings as the serial
//     engine — and every per-node statistic, report and trace is
//     bit-identical. (Aggregate fabric counters are summed over per-port
//     counters for the same reason; see internal/fabric.)
//
// What the model must supply for the above to hold: every cross-shard
// interaction goes through the flush hook with delay >= the lookahead, and
// cross-shard pri keys are unique and execution-order-independent. The
// fabric satisfies both: every frame reaches its destination port no
// sooner than the link's propagation plus switch latency after it is sent.
type Group struct {
	engs []*Engine
	la   Time
	// flush moves all pending cross-shard messages into their destination
	// engines (via ScheduleArgPri) and reports whether it injected any. It
	// is only called while every worker is parked, so it may touch all
	// shards freely. Nil means the shards are fully independent.
	flush func() bool
}

// NewGroup returns a Group over the given shard engines with the given
// lookahead (must be positive; a model without lookahead runs on a single
// engine instead). The flush hook delivers cross-shard
// messages between windows; it may be nil.
func NewGroup(engs []*Engine, lookahead Time, flush func() bool) *Group {
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: Group lookahead must be positive, got %d", lookahead))
	}
	if len(engs) == 0 {
		panic("sim: Group needs at least one engine")
	}
	return &Group{engs: engs, la: lookahead, flush: flush}
}

// Engines returns the shard engines, indexed by shard.
func (g *Group) Engines() []*Engine { return g.engs }

// Run executes windows until every shard is drained and the flush hook has
// nothing left to inject.
func (g *Group) Run() { g.run(maxHorizon - 1) }

// RunUntil executes all events with timestamps <= t, then advances every
// shard's clock to t — the multi-shard analogue of Engine.RunUntil.
func (g *Group) RunUntil(t Time) {
	g.run(t)
	for _, e := range g.engs {
		if e.now < t {
			e.now = t
		}
	}
}

// quitWindow is the window sentinel that tells workers to exit.
const quitWindow = -1 << 62

// groupCtl is the spin-barrier shared state. The coordinator publishes a
// window end in win, then bumps epoch to release the workers; each worker
// bumps done when its shard has drained the window. All cross-goroutine
// engine access is ordered by these atomics (the epoch bump
// happens-after the flush/peek writes; the done observation happens-after
// the workers' event execution).
type groupCtl struct {
	win   atomic.Int64
	epoch atomic.Uint64
	done  atomic.Int64
}

// spinWait spins on cond, yielding the OS thread periodically so an
// oversubscribed host (fewer cores than shards, or a busy CI runner) makes
// progress instead of livelocking.
func spinWait(cond func() bool) {
	for spins := 0; !cond(); spins++ {
		if spins > 2000 {
			runtime.Gosched()
		}
	}
}

// run executes barrier windows covering all events with timestamps <=
// bound. A worker panic is captured, the fleet is shut down, and the panic
// is re-raised on the caller's goroutine.
func (g *Group) run(bound Time) {
	if len(g.engs) == 1 {
		// Degenerate single-shard group: no workers, no barrier — just
		// alternate flush and drain (self-sends via the flush hook still
		// work this way).
		for {
			injected := g.flush != nil && g.flush()
			if t, ok := g.engs[0].PeekTime(); ok && t <= bound {
				g.engs[0].runWindow(bound)
			} else if !injected {
				return
			}
		}
	}

	ctl := &groupCtl{}
	panics := make([]any, len(g.engs))
	for i := 1; i < len(g.engs); i++ {
		go g.worker(i, ctl, panics)
	}
	workers := int64(len(g.engs) - 1)

	release := func(w Time) {
		ctl.done.Store(0)
		ctl.win.Store(w)
		ctl.epoch.Add(1)
	}
	shutdown := func() {
		release(quitWindow)
		spinWait(func() bool { return ctl.done.Load() == workers })
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}

	for {
		// Workers are parked here (either not yet released, or spinning on
		// the next epoch), so the coordinator owns all shards: deliver the
		// previous window's cross-shard messages, then find the next one.
		injected := g.flush != nil && g.flush()
		tmin, any := Time(0), false
		for _, e := range g.engs {
			if t, ok := e.PeekTime(); ok && (!any || t < tmin) {
				tmin, any = t, true
			}
		}
		if !any {
			if injected {
				continue // flush raced nothing in; re-check emptied outboxes
			}
			shutdown()
			return
		}
		if tmin > bound {
			shutdown()
			return
		}
		w := tmin + g.la - 1
		if w > bound {
			w = bound
		}
		release(w)
		func() {
			defer func() { panics[0] = recover() }()
			g.engs[0].runWindow(w)
		}()
		spinWait(func() bool { return ctl.done.Load() == workers })
		for _, p := range panics {
			if p != nil {
				shutdown()
			}
		}
	}
}

// worker drives one shard: wait for the coordinator's epoch bump, run the
// published window, report done; exit on the quit sentinel. Panics are
// parked in panics[i] for the coordinator to re-raise — letting one escape
// here would kill the process before the fleet can be torn down.
func (g *Group) worker(i int, ctl *groupCtl, panics []any) {
	var epoch uint64
	for {
		target := epoch + 1
		spinWait(func() bool { return ctl.epoch.Load() >= target })
		epoch = ctl.epoch.Load()
		w := ctl.win.Load()
		if w == quitWindow {
			ctl.done.Add(1)
			return
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
				}
			}()
			g.engs[i].runWindow(w)
		}()
		ctl.done.Add(1)
	}
}
