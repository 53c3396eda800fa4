package host

import (
	"fmt"

	"openmxsim/internal/sim"
)

// Core models one processor core with two execution contexts:
//
//   - IRQ context: interrupt work (ISR + NAPI poll packet processing). IRQ
//     items run serially, at top priority, and preempt user work.
//   - User context: application/library work (compute phases, event pickup,
//     send posting). One task runs at a time; it is paused while IRQ work
//     executes and resumes afterwards, which is how interrupt load "steals"
//     application time in the NAS runs (Table IV).
//
// A core with no work, no busy-polling rank, and sleep enabled enters the
// C1E state after IdleSleepDelay; the next interrupt then pays
// WakeupLatency before its handler starts (Section IV-B1).
//
// Both contexts recycle their bookkeeping records (userTask, irqItem)
// through per-core sim.FreeLists and schedule through pre-bound callbacks,
// so submitting work allocates nothing in steady state. Use the Arg variants
// with a long-lived callback to keep the caller side allocation-free too.
type Core struct {
	host *Host
	ID   int

	irqBusyUntil sim.Time // completion time of the last queued IRQ item
	irqDepth     int      // IRQ items submitted but not finished

	curUser *userTask
	userQ   sim.Queue[*userTask]

	pollers    int // busy-polling ranks pinned here (prevent sleep)
	sleeping   bool
	sleepTimer *sim.Event
	idleSince  sim.Time

	// Record free lists, and the callbacks bound once in newCore.
	tasks        sim.FreeList[userTask]
	irqs         sim.FreeList[irqItem]
	irqFireFn    func(any)
	completeFn   func(any)
	sleepEnterFn func()

	Stats CoreStats
}

// newCore builds a core with its bound callbacks, so scheduling later never
// creates a closure.
func newCore(h *Host, id int) *Core {
	c := &Core{host: h, ID: id}
	c.irqFireFn = func(x any) { c.irqFire(x.(*irqItem)) }
	c.completeFn = func(x any) { c.userComplete(x.(*userTask)) }
	c.sleepEnterFn = func() {
		c.sleepTimer = nil
		if !c.Busy() && c.pollers == 0 && !c.sleeping {
			c.sleeping = true
			c.idleSince = c.host.eng.Now()
		}
	}
	return c
}

// CoreStats accumulates per-core accounting.
type CoreStats struct {
	// Interrupts delivered to this core.
	Interrupts uint64
	// Wakeups counts interrupts that found the core in C1E.
	Wakeups uint64
	// IRQBusy and UserBusy are total virtual time spent per context.
	IRQBusy  sim.Time
	UserBusy sim.Time
	// SleepTime is total time spent in C1E.
	SleepTime sim.Time
	// UserTasks counts completed user-context tasks.
	UserTasks uint64
}

type userTask struct {
	remaining sim.Time
	fn        func(any)
	arg       any
	timer     *sim.Event
	lastStart sim.Time
	running   bool
}

// irqItem carries one queued IRQ-context callback through the engine.
type irqItem struct {
	fn  func(any)
	arg any
}

// callFunc adapts a plain func() carried as the arg of an Arg-variant
// submission. func values are pointer-shaped, so the conversion to any does
// not allocate; only the caller's closure (if any) does.
func callFunc(x any) { x.(func())() }

// SubmitIRQ queues interrupt-context work of the given duration; fn runs at
// its virtual completion time. The boolean wasInterrupt marks the item as a
// hardware interrupt delivery for wake-up/statistics purposes (NAPI
// per-packet items pass false).
func (c *Core) SubmitIRQ(dur sim.Time, wasInterrupt bool, fn func()) {
	c.SubmitIRQArg(dur, wasInterrupt, callFunc, fn)
}

// SubmitIRQArg is the allocation-free variant of SubmitIRQ: fn should be a
// long-lived callback and arg a pointer, so nothing escapes per call.
func (c *Core) SubmitIRQArg(dur sim.Time, wasInterrupt bool, fn func(any), arg any) {
	eng := c.host.eng
	now := eng.Now()
	start := now
	if c.irqBusyUntil > start {
		start = c.irqBusyUntil
	}
	if wasInterrupt {
		c.Stats.Interrupts++
	}
	if c.sleeping {
		// C1E exit penalty before any handler work runs.
		c.wake(now)
		c.Stats.Wakeups++
		start += c.host.P.WakeupLatency
	}
	c.cancelSleepTimer()
	if c.irqDepth == 0 && c.curUser != nil && c.curUser.running {
		c.pauseUser(now)
	}
	c.irqDepth++
	c.irqBusyUntil = start + dur
	c.Stats.IRQBusy += dur
	it := c.irqs.Get()
	it.fn, it.arg = fn, arg
	eng.ScheduleArg(start+dur, c.irqFireFn, it)
}

func (c *Core) irqFire(it *irqItem) {
	fn, arg := it.fn, it.arg
	c.irqs.Put(it)
	fn(arg)
	c.irqDone()
}

func (c *Core) irqDone() {
	c.irqDepth--
	if c.irqDepth < 0 {
		panic("host: irqDepth underflow")
	}
	if c.irqDepth > 0 {
		return
	}
	now := c.host.eng.Now()
	if c.curUser != nil {
		c.resumeUser(now)
		return
	}
	c.startNextUser(now)
}

// SubmitUser queues user-context work of the given duration on this core;
// fn runs at its completion. User work is FIFO and preempted by IRQ work.
func (c *Core) SubmitUser(dur sim.Time, fn func()) {
	c.SubmitUserArg(dur, callFunc, fn)
}

// SubmitUserArg is the allocation-free variant of SubmitUser.
func (c *Core) SubmitUserArg(dur sim.Time, fn func(any), arg any) {
	if dur < 0 {
		panic(fmt.Sprintf("host: negative user work %d", dur))
	}
	t := c.tasks.Get()
	t.remaining, t.fn, t.arg = dur, fn, arg
	c.cancelSleepTimer()
	now := c.host.eng.Now()
	if c.sleeping {
		// A rank resuming on a sleeping core (blocking-wait mode) pays the
		// wake-up penalty too.
		c.wake(now)
		t.remaining += c.host.P.WakeupLatency
	}
	if c.curUser == nil && c.irqDepth == 0 && c.userQ.Len() == 0 {
		c.curUser = t
		c.runUser(now)
		return
	}
	c.userQ.PushBack(t)
}

func (c *Core) runUser(now sim.Time) {
	t := c.curUser
	t.running = true
	t.lastStart = now
	t.timer = c.host.eng.ScheduleArg(now+t.remaining, c.completeFn, t)
}

func (c *Core) userComplete(t *userTask) {
	c.Stats.UserBusy += t.remaining
	c.curUser = nil
	c.Stats.UserTasks++
	fn, arg := t.fn, t.arg
	c.tasks.Put(t)
	fn(arg)
	now := c.host.eng.Now()
	if c.curUser == nil && c.irqDepth == 0 {
		c.startNextUser(now)
	}
}

//omxlint:hotpath
func (c *Core) startNextUser(now sim.Time) {
	if c.userQ.Len() == 0 {
		c.maybeIdle(now)
		return
	}
	c.curUser = c.userQ.PopFront()
	c.runUser(now)
}

func (c *Core) pauseUser(now sim.Time) {
	t := c.curUser
	ran := now - t.lastStart
	if ran < 0 {
		panic("host: user task ran negative time")
	}
	t.remaining -= ran
	c.Stats.UserBusy += ran
	if t.remaining < 0 {
		t.remaining = 0
	}
	t.running = false
	if t.timer != nil {
		t.timer.Cancel()
		t.timer = nil
	}
}

func (c *Core) resumeUser(now sim.Time) {
	t := c.curUser
	if t.running {
		return
	}
	t.running = true
	t.lastStart = now
	t.timer = c.host.eng.ScheduleArg(now+t.remaining, c.completeFn, t)
}

// Poll registers (true) or unregisters (false) a busy-polling rank on this
// core. Busy-polling cores never sleep, matching Open MPI's spin-wait
// progression over MX.
func (c *Core) Poll(active bool) {
	if active {
		c.pollers++
		if c.sleeping {
			c.wake(c.host.eng.Now())
		}
		c.cancelSleepTimer()
		return
	}
	c.pollers--
	if c.pollers < 0 {
		panic("host: poller underflow")
	}
	if c.pollers == 0 {
		c.maybeIdle(c.host.eng.Now())
	}
}

// Host returns the host this core belongs to — the hook rank placement
// uses to find a core's engine under the sharded runtime.
func (c *Core) Host() *Host { return c.host }

// Busy reports whether the core currently has queued or running work.
func (c *Core) Busy() bool {
	return c.irqDepth > 0 || c.curUser != nil || c.userQ.Len() > 0
}

// Sleeping reports whether the core is in C1E.
func (c *Core) Sleeping() bool { return c.sleeping }

func (c *Core) maybeIdle(now sim.Time) {
	if c.Busy() || c.pollers > 0 || !c.host.P.SleepEnabled || c.sleeping {
		return
	}
	c.cancelSleepTimer()
	c.sleepTimer = c.host.eng.Schedule(now+c.host.P.IdleSleepDelay, c.sleepEnterFn)
}

func (c *Core) wake(now sim.Time) {
	if !c.sleeping {
		return
	}
	c.sleeping = false
	c.Stats.SleepTime += now - c.idleSince
}

func (c *Core) cancelSleepTimer() {
	if c.sleepTimer != nil {
		c.sleepTimer.Cancel()
		c.sleepTimer = nil
	}
}
