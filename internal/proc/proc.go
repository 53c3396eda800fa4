// Package proc provides deterministic process-style coroutines over the
// event engine: each simulated rank runs straight-line blocking code as an
// iter.Pull coroutine, and control strictly alternates between the engine
// and at most one rank at a time, so simulations remain bit-reproducible
// and free of data races by construction.
package proc

import (
	"fmt"
	"iter"

	"openmxsim/internal/host"
	"openmxsim/internal/sim"
)

type killSentinel struct{}

// Proc is one simulated process (MPI rank).
type Proc struct {
	Name string

	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	waiting bool
	done    bool
	killed  bool
	started bool
}

// New creates a process; Start launches it.
func New(name string) *Proc { return &Proc{Name: name} }

// Start schedules the process body to begin at virtual time at. The body
// runs as a coroutine, only while the engine is blocked on it; a panic in
// it surfaces on the goroutine that runs the engine.
func (p *Proc) Start(eng *sim.Engine, at sim.Time, fn func()) {
	if p.started {
		panic("proc: double Start")
	}
	p.started = true
	if p.done {
		return // killed before Start: the body never runs
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && !IsKill(r) {
				panic(r) // real bug in rank code: crash loudly
			}
		}()
		p.yield = yield
		fn()
	})
	eng.Schedule(at, p.step)
}

// step transfers control to the process until it blocks or finishes.
// It must only be called from engine context.
func (p *Proc) step() {
	if p.done {
		return
	}
	if _, ok := p.next(); !ok {
		p.done = true
	}
}

// block parks the process until the next step. Once Kill has stopped the
// coroutine, yield returns false and block unwinds the rank's stack with
// the kill sentinel; a body that swallows the sentinel and blocks again
// has survived Kill. Must be called from the process body.
func (p *Proc) block() {
	if p.yield(struct{}{}) {
		return
	}
	if p.killed {
		panic(fmt.Sprintf("proc: %s survived Kill", p.Name))
	}
	p.killed = true
	panic(killSentinel{})
}

// Wait blocks the process until cond() is true. cond is evaluated in
// process context; Wake re-evaluates it.
func (p *Proc) Wait(cond func() bool) {
	for !cond() {
		p.waiting = true
		p.block()
		p.waiting = false
	}
}

// Wake resumes a process blocked in Wait. Calling it when the process is
// not waiting is a harmless no-op (the condition is re-checked before any
// block). Must be called from engine context.
func (p *Proc) Wake() {
	if p.done || !p.waiting {
		return
	}
	p.step()
}

// IsKill reports whether a value recovered inside a process body is the
// sentinel Kill unwinds with. Rank-level recover wrappers must re-panic it
// so teardown proceeds normally.
func IsKill(r any) bool { _, ok := r.(killSentinel); return ok }

// Done reports whether the process body returned.
func (p *Proc) Done() bool { return p.done }

// Waiting reports whether the process is blocked in Wait.
func (p *Proc) Waiting() bool { return p.waiting }

// Kill aborts a blocked process (used to tear down abandoned simulations):
// the rank's stack unwinds with the kill sentinel and its coroutine ends.
// A process killed before its first step never runs its body. Must be
// called from engine context.
func (p *Proc) Kill() {
	if p.done {
		return
	}
	if p.started {
		p.stop()
	}
	p.done = true
}

// Advance charges d nanoseconds of user-context work (a compute phase) to
// core and blocks the process until it completes. Interrupt load on the
// core stretches the phase, which is how interrupt processing steals
// application time in the NAS runs.
func (p *Proc) Advance(core *host.Core, d sim.Time) {
	done := false
	core.SubmitUser(d, func() {
		done = true
		p.Wake()
	})
	p.Wait(func() bool { return done })
}
