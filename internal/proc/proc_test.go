package proc

import (
	"testing"

	"openmxsim/internal/host"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
)

func TestProcRunsToCompletion(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	ran := false
	p.Start(eng, 0, func() { ran = true })
	eng.Run()
	if !ran || !p.Done() {
		t.Fatalf("ran=%v done=%v", ran, p.Done())
	}
}

func TestWaitAndWake(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	flag := false
	var wokeAt sim.Time
	p.Start(eng, 0, func() {
		p.Wait(func() bool { return flag })
		wokeAt = eng.Now()
	})
	eng.After(500, func() {
		flag = true
		p.Wake()
	})
	eng.Run()
	if !p.Done() {
		t.Fatal("proc stuck")
	}
	if wokeAt != 500 {
		t.Fatalf("woke at %d, want 500", wokeAt)
	}
}

func TestWaitConditionAlreadyTrue(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() {
		p.Wait(func() bool { return true }) // must not block
	})
	eng.Run()
	if !p.Done() {
		t.Fatal("proc blocked on an already-true condition")
	}
}

func TestSpuriousWakeIgnored(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	flag := false
	p.Start(eng, 0, func() {
		p.Wait(func() bool { return flag })
	})
	eng.After(100, func() { p.Wake() }) // condition still false
	eng.After(200, func() {
		flag = true
		p.Wake()
	})
	eng.Run()
	if !p.Done() {
		t.Fatal("proc stuck after spurious wake")
	}
}

func TestWakeWhenNotWaitingIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() {})
	eng.Run()
	p.Wake() // done proc: must not hang or panic
}

func TestAdvanceChargesCore(t *testing.T) {
	eng := sim.NewEngine()
	hp := params.Default().Host
	hp.SleepEnabled = false
	h := host.New(eng, 0, hp)
	p := New("p")
	var t1, t2 sim.Time
	p.Start(eng, 0, func() {
		p.Advance(h.Cores[0], 1000)
		t1 = eng.Now()
		p.Advance(h.Cores[0], 2000)
		t2 = eng.Now()
	})
	eng.Run()
	if t1 != 1000 || t2 != 3000 {
		t.Fatalf("advance times %d, %d; want 1000, 3000", t1, t2)
	}
}

func TestAdvanceStretchedByIRQ(t *testing.T) {
	eng := sim.NewEngine()
	hp := params.Default().Host
	hp.SleepEnabled = false
	h := host.New(eng, 0, hp)
	p := New("p")
	var end sim.Time
	p.Start(eng, 0, func() {
		p.Advance(h.Cores[0], 10_000)
		end = eng.Now()
	})
	eng.After(1000, func() {
		h.Cores[0].SubmitIRQ(5000, true, func() {})
	})
	eng.Run()
	if end != 15_000 {
		t.Fatalf("compute finished at %d, want 15000 (stretched by IRQ)", end)
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	eng := sim.NewEngine()
	hp := params.Default().Host
	hp.SleepEnabled = false
	h := host.New(eng, 0, hp)
	a, b := New("a"), New("b")
	var order []string
	ready := false
	a.Start(eng, 0, func() {
		order = append(order, "a1")
		a.Wait(func() bool { return ready })
		order = append(order, "a2")
	})
	b.Start(eng, 0, func() {
		order = append(order, "b1")
		b.Advance(h.Cores[1], 100)
		ready = true
		a.Wake()
		order = append(order, "b2")
	})
	eng.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	if len(order) != 4 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if !a.Done() || !b.Done() {
		t.Fatal("procs stuck")
	}
}

func TestKillUnblocksStuckProc(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() {
		p.Wait(func() bool { return false }) // never satisfied
	})
	eng.Run()
	if p.Done() {
		t.Fatal("proc should be stuck")
	}
	if !p.Waiting() {
		t.Fatal("proc should be waiting")
	}
	p.Kill()
	if !p.Done() {
		t.Fatal("Kill did not terminate the proc")
	}
}

func TestKillBeforeFirstStep(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	ran := false
	p.Start(eng, 100, func() { ran = true })
	p.Kill()
	if !p.Done() {
		t.Fatal("Kill before the first step left the proc not done")
	}
	eng.Run()
	if ran {
		t.Fatal("a proc killed before its first step ran its body")
	}
}

func TestSwallowedKillPanics(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	never := func() bool { return false }
	p.Start(eng, 0, func() {
		func() {
			defer func() { recover() }() // swallows the kill sentinel
			p.Wait(never)
		}()
		p.Wait(never)
	})
	eng.Run()
	defer func() {
		if r := recover(); r != "proc: p survived Kill" {
			t.Fatalf("Kill of a proc that blocked again panicked with %v", r)
		}
	}()
	p.Kill()
}

func TestRankPanicSurfacesFromRun(t *testing.T) {
	type bug struct{ n int }
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() { panic(bug{7}) })
	got := func() (r any) {
		defer func() { r = recover() }()
		eng.Run()
		return nil
	}()
	if got != (bug{7}) {
		t.Fatalf("eng.Run panicked with %v, want the rank's own value", got)
	}
}

func TestHandoffDoesNotAllocate(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	ready, stop := false, false
	p.Start(eng, 0, func() {
		for !stop {
			p.Wait(func() bool { return ready })
			ready = false
		}
	})
	eng.Run()
	if got := testing.AllocsPerRun(1000, func() {
		ready = true
		p.Wake()
	}); got != 0 {
		t.Fatalf("Wake → Wait round trip allocates %v times", got)
	}
	stop, ready = true, true
	p.Wake()
	if !p.Done() {
		t.Fatal("proc stuck")
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() {})
	eng.Run()
	p.Kill()
	if !p.Done() {
		t.Fatal("done proc un-done by Kill")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	p := New("p")
	p.Start(eng, 0, func() {})
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	p.Start(eng, 0, func() {})
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		eng := sim.NewEngine()
		hp := params.Default().Host
		hp.SleepEnabled = false
		h := host.New(eng, 0, hp)
		var trace []int
		procs := make([]*Proc, 4)
		for i := range procs {
			i := i
			procs[i] = New("p")
			procs[i].Start(eng, 0, func() {
				for k := 0; k < 5; k++ {
					procs[i].Advance(h.Cores[i%len(h.Cores)], sim.Time(100*(i+1)))
					trace = append(trace, i)
				}
			})
		}
		eng.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving differs at %d: %v vs %v", i, a, b)
		}
	}
}
