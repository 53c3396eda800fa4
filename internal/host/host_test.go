package host

import (
	"testing"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
)

func testHost(sleep bool) (*sim.Engine, *Host) {
	eng := sim.NewEngine()
	p := params.Default().Host
	p.SleepEnabled = sleep
	return eng, New(eng, 0, p)
}

func TestUserWorkRuns(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	var doneAt sim.Time
	c.SubmitUser(1000, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 1000 {
		t.Fatalf("user work completed at %d, want 1000", doneAt)
	}
	if c.Stats.UserBusy != 1000 {
		t.Errorf("UserBusy = %d, want 1000", c.Stats.UserBusy)
	}
}

func TestUserWorkFIFO(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		c.SubmitUser(100, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("user work out of order: %v", order)
		}
	}
	if eng.Now() != 300 {
		t.Errorf("three 100ns tasks finished at %d, want 300", eng.Now())
	}
}

func TestIRQPreemptsUser(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	var userDone, irqDone sim.Time
	c.SubmitUser(10_000, func() { userDone = eng.Now() })
	eng.After(2_000, func() {
		c.SubmitIRQ(3_000, true, func() { irqDone = eng.Now() })
	})
	eng.Run()
	if irqDone != 5_000 {
		t.Fatalf("IRQ done at %d, want 5000", irqDone)
	}
	// User task had 8000ns left at preemption; resumes at 5000.
	if userDone != 13_000 {
		t.Fatalf("user done at %d, want 13000 (preempted by IRQ)", userDone)
	}
}

func TestNestedIRQSerializes(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	var times []sim.Time
	c.SubmitIRQ(100, true, func() {
		times = append(times, eng.Now())
		// Handler-chained work (e.g. NAPI per-packet items).
		c.SubmitIRQ(200, false, func() { times = append(times, eng.Now()) })
		c.SubmitIRQ(300, false, func() { times = append(times, eng.Now()) })
	})
	eng.Run()
	want := []sim.Time{100, 300, 600}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestUserResumeAfterChainedIRQ(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	var userDone sim.Time
	c.SubmitUser(1_000, func() { userDone = eng.Now() })
	eng.After(100, func() {
		c.SubmitIRQ(100, true, func() {
			c.SubmitIRQ(100, false, func() {})
		})
	})
	eng.Run()
	// 100ns ran, then 200ns of IRQ, then the remaining 900ns.
	if userDone != 1_200 {
		t.Fatalf("user done at %d, want 1200", userDone)
	}
}

func TestSleepAndWakeup(t *testing.T) {
	eng, h := testHost(true)
	c := h.Cores[0]
	var handlerAt sim.Time
	// Let the core go idle and sleep, then deliver an interrupt.
	eng.After(h.P.IdleSleepDelay+100, func() {
		if !c.Sleeping() {
			t.Error("core not sleeping after idle delay")
		}
		c.SubmitIRQ(500, true, func() { handlerAt = eng.Now() })
	})
	eng.Run()
	want := h.P.IdleSleepDelay + 100 + h.P.WakeupLatency + 500
	if handlerAt != want {
		t.Fatalf("handler at %d, want %d (includes wakeup)", handlerAt, want)
	}
	if c.Stats.Wakeups != 1 {
		t.Errorf("Wakeups = %d, want 1", c.Stats.Wakeups)
	}
	if c.Stats.SleepTime == 0 {
		t.Error("SleepTime not accounted")
	}
}

func TestSleepDisabled(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	eng.After(1_000_000, func() {
		if c.Sleeping() {
			t.Error("core slept with SleepEnabled=false")
		}
		var at sim.Time
		c.SubmitIRQ(500, true, func() { at = eng.Now() })
		eng.After(600, func() {
			if at != 1_000_500 {
				t.Errorf("handler at %d, want 1000500 (no wakeup)", at)
			}
		})
	})
	eng.Run()
	if c.Stats.Wakeups != 0 {
		t.Errorf("Wakeups = %d, want 0", c.Stats.Wakeups)
	}
}

func TestPollingPreventsSleep(t *testing.T) {
	eng, h := testHost(true)
	c := h.Cores[0]
	c.Poll(true)
	eng.After(10*h.P.IdleSleepDelay, func() {
		if c.Sleeping() {
			t.Error("polling core slept")
		}
		c.Poll(false)
	})
	eng.After(11*h.P.IdleSleepDelay+100, func() {
		if !c.Sleeping() {
			t.Error("core did not sleep after polling stopped")
		}
	})
	eng.Run()
}

func TestWorkCancelsPendingSleep(t *testing.T) {
	eng, h := testHost(true)
	c := h.Cores[0]
	// Submit work just before the sleep timer fires.
	eng.After(h.P.IdleSleepDelay-100, func() {
		c.SubmitUser(50, func() {})
	})
	eng.After(h.P.IdleSleepDelay+10, func() {
		if c.Sleeping() {
			t.Error("core slept despite fresh work")
		}
	})
	eng.Run()
}

func TestBusyReporting(t *testing.T) {
	eng, h := testHost(false)
	c := h.Cores[0]
	if c.Busy() {
		t.Fatal("fresh core is busy")
	}
	c.SubmitUser(100, func() {})
	if !c.Busy() {
		t.Fatal("core with queued work not busy")
	}
	eng.Run()
	if c.Busy() {
		t.Fatal("drained core still busy")
	}
}

func TestIRQRoundRobinRouting(t *testing.T) {
	eng, h := testHost(false)
	_ = eng
	h.SetIRQPolicy(IRQRoundRobin)
	seen := map[int]int{}
	for i := 0; i < 16; i++ {
		seen[h.IRQTarget(0).ID]++
	}
	if len(seen) != len(h.Cores) {
		t.Fatalf("round robin hit %d cores, want %d", len(seen), len(h.Cores))
	}
	for id, n := range seen {
		if n != 2 {
			t.Errorf("core %d hit %d times, want 2", id, n)
		}
	}
}

func TestIRQSingleCoreRouting(t *testing.T) {
	_, h := testHost(false)
	h.SetIRQPolicy(IRQSingleCore)
	for i := 0; i < 8; i++ {
		if c := h.IRQTarget(i); c.ID != 0 {
			t.Fatalf("single-core routing hit core %d", c.ID)
		}
	}
}

func TestIRQPerQueueRouting(t *testing.T) {
	_, h := testHost(false)
	h.SetIRQPolicy(IRQPerQueue)
	for q := 0; q < 16; q++ {
		if c := h.IRQTarget(q); c.ID != q%len(h.Cores) {
			t.Fatalf("queue %d routed to core %d", q, c.ID)
		}
	}
}

func TestHostStatsAggregate(t *testing.T) {
	eng, h := testHost(false)
	h.Cores[0].SubmitUser(100, func() {})
	h.Cores[1].SubmitIRQ(200, true, func() {})
	eng.Run()
	s := h.Stats()
	if s.UserBusy != 100 || s.IRQBusy != 200 || s.Interrupts != 1 || s.UserTasks != 1 {
		t.Errorf("aggregate stats %+v", s)
	}
}

func TestZeroDurationUserWork(t *testing.T) {
	eng, h := testHost(false)
	ran := false
	h.Cores[0].SubmitUser(0, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("zero-duration work never ran")
	}
}

func TestManyInterruptsAccounting(t *testing.T) {
	eng, h := testHost(true)
	h.SetIRQPolicy(IRQRoundRobin)
	const n = 100
	gap := 20 * sim.Microsecond // long enough for cores to re-sleep
	for i := 0; i < n; i++ {
		at := sim.Time(i+1) * gap
		eng.Schedule(at, func() {
			h.IRQTarget(0).SubmitIRQ(500, true, func() {})
		})
	}
	eng.Run()
	s := h.Stats()
	if s.Interrupts != n {
		t.Fatalf("Interrupts = %d, want %d", s.Interrupts, n)
	}
	// Round-robin over 8 cores with 20us gaps: every delivery should find
	// its target asleep (each core idles 160us between hits).
	if s.Wakeups < n*9/10 {
		t.Errorf("Wakeups = %d, want nearly %d (round-robin hits sleepers)", s.Wakeups, n)
	}
}
