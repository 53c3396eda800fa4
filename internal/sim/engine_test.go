package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.After(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at t=%d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAtSameTimestamp(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events ran out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.After(10, func() {
		times = append(times, e.Now())
		e.After(5, func() { times = append(times, e.Now()) })
		e.Schedule(e.Now(), func() { times = append(times, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.After(10, func() { ran = true })
	e.After(5, func() { ev.Cancel() })
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

// A nil afn marks an event cancelled, so ScheduleArg and ScheduleArgPri
// refuse a nil callback when it is scheduled, before the event is filed,
// rather than letting it read as cancelled.
func TestScheduleNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	for _, c := range []struct {
		name     string
		schedule func()
	}{
		{"ScheduleArg", func() { e.ScheduleArg(10, nil, nil) }},
		{"ScheduleArgPri", func() { e.ScheduleArgPri(10, 1, nil, nil) }},
		{"AfterArg", func() { e.AfterArg(10, nil, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a nil callback did not panic", c.name)
				}
			}()
			c.schedule()
		}()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after refused schedules, want 0", e.Pending())
	}
}

// Cancel marks the event cancelled and drops its argument, so a cancelled
// event waiting in the wheel pins nothing of its driver's.
func TestCancelDropsArg(t *testing.T) {
	e := NewEngine()
	ev := e.ScheduleArg(10, func(any) { t.Error("cancelled event ran") }, new(int))
	fev := e.After(20, func() { t.Error("cancelled event ran") })
	for _, ev := range []*Event{ev, fev} {
		if ev.Cancelled() {
			t.Fatal("Cancelled() = true before Cancel")
		}
		ev.Cancel()
		if !ev.Cancelled() || ev.arg != nil {
			t.Fatalf("after Cancel: Cancelled() = %v, arg = %v; want true and nil", ev.Cancelled(), ev.arg)
		}
	}
	e.Run()
	if e.Pending() != 0 || e.Executed != 0 {
		t.Fatalf("Pending = %d, Executed = %d after Run, want 0 and 0", e.Pending(), e.Executed)
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	n := 0
	ev := e.After(10, func() { n++ })
	e.Run()
	ev.Cancel() // must be a harmless no-op
	if n != 1 {
		t.Fatalf("event ran %d times, want 1", n)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d after RunUntil(25)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d after RunUntil(100)", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.After(1, func() { n++; e.Stop() })
	e.After(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("ran %d events before stop, want 1", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("ran %d events after resume, want 2", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineLimitGuard(t *testing.T) {
	e := NewEngine()
	e.Limit = 10
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit did not panic")
		}
	}()
	e.Run()
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d on empty engine", e.Pending())
	}
	e.After(1, func() {})
	e.After(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// Property: for any set of delays, the engine visits them in sorted order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, d := range delays {
			e.After(Time(d), func() { got = append(got, e.Now()) })
		}
		e.Run()
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved scheduling and stepping never yields a time decrease.
func TestEngineMonotonicClock(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(42))
	last := Time(0)
	for i := 0; i < 1000; i++ {
		e.After(Time(r.Intn(100)), func() {})
		if r.Intn(2) == 0 {
			e.Step()
		}
		if e.Now() < last {
			t.Fatalf("clock went backwards: %d -> %d", last, e.Now())
		}
		last = e.Now()
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if i%2 == 1 {
			e.Step()
		}
	}
	for e.Step() {
	}
}

// Regression test for the RunUntil/peek cancelled-head bug: a cancelled
// event at the heap root used to be returned by peek, pass the "<= t" gate,
// and make Step run the next live event even when that event lay beyond the
// horizon — overshooting RunUntil.
func TestRunUntilCancelledHeadDoesNotOvershoot(t *testing.T) {
	e := NewEngine()
	cancelled := e.After(50, func() { t.Error("cancelled event ran") })
	cancelled.Cancel()
	ran := false
	e.After(150, func() { ran = true })
	e.RunUntil(100)
	if ran {
		t.Fatal("RunUntil(100) ran an event scheduled at t=150")
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d after RunUntil(100), want 100", e.Now())
	}
	e.RunUntil(200)
	if !ran {
		t.Fatal("event at t=150 never ran")
	}
}

// A cancelled-only queue must leave RunUntil at exactly t.
func TestRunUntilAllCancelled(t *testing.T) {
	e := NewEngine()
	for i := Time(1); i <= 5; i++ {
		e.After(i*10, func() { t.Error("cancelled event ran") }).Cancel()
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0 (cancelled heads discarded)", e.Pending())
	}
}

func TestScheduleArgDelivers(t *testing.T) {
	e := NewEngine()
	var got []int
	fn := func(x any) { got = append(got, *x.(*int)) }
	a, b := 1, 2
	e.ScheduleArg(20, fn, &b)
	e.AfterArg(10, fn, &a)
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

// FIFO order must hold across the Schedule and ScheduleArg variants.
func TestScheduleArgFIFOWithSchedule(t *testing.T) {
	e := NewEngine()
	var order []int
	afn := func(x any) { order = append(order, x.(int)) }
	e.Schedule(5, func() { order = append(order, 0) })
	e.ScheduleArg(5, afn, 1)
	e.Schedule(5, func() { order = append(order, 2) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-variant events ran out of order: %v", order)
		}
	}
}

// The recycle path must be allocation-free in steady state: once the free
// list is warm, Schedule+Step performs zero heap allocations. This is the
// tentpole guarantee of the zero-allocation hot path PR; future changes that
// reintroduce per-event garbage fail here.
func TestScheduleStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	var arg int
	afn := func(any) {}
	for i := 0; i < 64; i++ { // warm the free list and heap capacity
		e.After(Time(i), fn)
	}
	for e.Step() {
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		e.Step()
	}); got != 0 {
		t.Fatalf("Schedule+Step allocates %v objects/op in steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.AfterArg(1, afn, &arg)
		e.Step()
	}); got != 0 {
		t.Fatalf("ScheduleArg+Step allocates %v objects/op in steady state, want 0", got)
	}
}

// At GOMAXPROCS 1 the engine must enter the Go scheduler while it runs, or
// the GC's background mark worker never gets the processor (see runEvent).
// A goroutine started just before Run stands in for the mark worker: it
// must have run by the last of three yield intervals of chained events.
func TestRunYieldsToScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := NewEngine()
	const events = 3 * yieldEvery
	var ran atomic.Bool
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < events {
			e.After(1, chain)
		} else if !ran.Load() {
			t.Errorf("a runnable goroutine did not run during %d events at GOMAXPROCS 1", events)
		}
	}
	e.After(1, chain)
	go ran.Store(true)
	e.Run()
	if n != events {
		t.Fatalf("ran %d chained events, want %d", n, events)
	}
}

// Cancelled events must be recycled, not leaked, whether discarded by Step
// or by peek.
func TestCancelledEventsRecycleAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	for e.Step() {
	}
	if got := testing.AllocsPerRun(1000, func() {
		e.After(1, fn).Cancel()
		e.After(2, fn)
		e.Step()
		e.Step()
	}); got != 0 {
		t.Fatalf("cancel+discard allocates %v objects/op in steady state, want 0", got)
	}
}
