package nic

import (
	"fmt"
	"testing"

	"openmxsim/internal/sim"
)

// TestAdaptiveWindowStartsAtTimeZero is the regression test for the
// windowStart == 0 "unset" sentinel: a completion at simulated time 0 must
// open the rate window there, so a dense burst inside the first window
// adapts the delay upward. With the sentinel bug every completion at a later
// time silently restarted the window and the delay never adapted.
func TestAdaptiveWindowStartsAtTimeZero(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyAdaptive, Delay: 75 * sim.Microsecond})
	c, ok := r.nic.queues[0].coal.(*adaptiveCoalescer)
	if !ok {
		t.Fatalf("queue coalescer is %T, want *adaptiveCoalescer", r.nic.queues[0].coal)
	}
	p := r.p.NIC
	// Open the window with a completion at t=0, add a dense burst shortly
	// after, then close the window exactly at its end.
	r.eng.Schedule(0, func() { c.adapt() })
	r.eng.Schedule(100, func() {
		for i := 0; i < 130; i++ {
			c.adapt()
		}
	})
	r.eng.Schedule(p.AdaptiveWindow, func() { c.adapt() })
	r.eng.Run()
	if got := c.Delay(); got != p.AdaptiveMax {
		t.Errorf("delay after dense window starting at t=0 = %v, want AdaptiveMax %v (window restarted?)", got, p.AdaptiveMax)
	}
}

// descs plants completed-but-unpolled descriptors on queue 0, simulating
// packets that slipped in after a poll's final ring check.
func (r *rig) planted(marked ...bool) {
	q := r.nic.queues[0]
	for _, m := range marked {
		d := r.nic.descs.Get()
		d.Marked = m
		d.Queue = 0
		q.completed.PushBack(d)
	}
}

// TestOnBacklogWithMarkedFrame checks the poll-end backlog path of every
// strategy when a marked frame is among the queued descriptors: the
// marker-aware firmwares interrupt immediately, the others fall back to
// their usual behaviour (per-packet or timer).
func TestOnBacklogWithMarkedFrame(t *testing.T) {
	cases := []struct {
		strategy Strategy
		// immediate: the interrupt must be requested without waiting for
		// the coalescing timer.
		immediate bool
	}{
		{StrategyDisabled, true},
		{StrategyTimeout, false},
		{StrategyOpenMX, true},
		{StrategyStream, true},
		{StrategyAdaptive, false},
		{StrategyFeedback, false},
	}
	const delay = 75 * sim.Microsecond
	for _, tc := range cases {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			r := newRig(t, Config{Strategy: tc.strategy, Delay: delay})
			q := r.nic.queues[0]
			r.planted(false, true) // unmarked + marked queued at poll end
			r.eng.Schedule(0, func() { q.coal.onBacklog() })
			r.eng.Run()
			if len(r.drv.processed) != 2 {
				t.Fatalf("processed %d descriptors, want 2", len(r.drv.processed))
			}
			early := r.drv.times[0] < delay
			if early != tc.immediate {
				t.Errorf("first descriptor processed at %v, immediate=%v, want immediate=%v",
					r.drv.times[0], early, tc.immediate)
			}
		})
	}
}

// TestStreamDeferralAccounting checks Stats.Deferred counts one deferral
// per marked burst, not one per marked completion inside the burst.
func TestStreamDeferralAccounting(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyStream, Delay: 75 * sim.Microsecond})
	q := r.nic.queues[0]
	c := q.coal.(*streamCoalescer)
	marked := &RxDesc{Marked: true}

	burst := func(at sim.Time) {
		r.eng.Schedule(at, func() {
			// Three marked completions with other DMAs pending: the burst is
			// deferred exactly once...
			for i := 0; i < 3; i++ {
				r.planted(true)
				c.onDMAComplete(marked, 2)
			}
			// ...and the quiet completion (pending == 0) raises the interrupt.
			r.planted(true)
			c.onDMAComplete(marked, 0)
		})
	}
	burst(0)
	burst(1 * sim.Millisecond)
	r.eng.Run()
	if r.nic.Stats.Deferred != 2 {
		t.Errorf("Stats.Deferred = %d, want 2 (one per burst)", r.nic.Stats.Deferred)
	}
	if r.nic.Stats.Interrupts != 2 {
		t.Errorf("Interrupts = %d, want 2 (one per burst)", r.nic.Stats.Interrupts)
	}
}

// TestFeedbackWalksUpUnderInterruptOverload drives the feedback strategy
// with dense traffic far above its interrupt-rate target: the controller
// must walk the delay up (coalesce harder) window after window.
func TestFeedbackWalksUpUnderInterruptOverload(t *testing.T) {
	r := newRig(t, Config{
		Strategy: StrategyFeedback,
		Delay:    5 * sim.Microsecond,
		// A 1k intr/s target that per-packet interrupts at 100k pkts/s
		// overshoot by two orders of magnitude; an effectively unbounded
		// latency budget keeps the guardrail out of the picture.
		Feedback: FeedbackGoal{TargetIntrPerSec: 1_000, MaxLatency: sim.Second},
	})
	c, ok := r.nic.queues[0].coal.(*feedbackCoalescer)
	if !ok {
		t.Fatalf("queue coalescer is %T, want *feedbackCoalescer", r.nic.queues[0].coal)
	}
	for i := 0; i < 200; i++ {
		r.inject(sim.Time(i)*10*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if got := c.Delay(); got <= 5*sim.Microsecond {
		t.Errorf("delay after interrupt overload = %v, want > initial 5us", got)
	}
	if r.nic.Stats.FeedbackSteps == 0 {
		t.Error("controller recorded no delay adjustments")
	}
}

// TestFeedbackWalksDownOverLatencyBudget drives the feedback strategy with
// sparse traffic under a tight latency budget: every packet waits the full
// (long) delay before its interrupt, so the controller must walk the delay
// down even though the interrupt rate is far below target.
func TestFeedbackWalksDownOverLatencyBudget(t *testing.T) {
	r := newRig(t, Config{
		Strategy: StrategyFeedback,
		Delay:    100 * sim.Microsecond,
		Feedback: FeedbackGoal{TargetIntrPerSec: 1e12, MaxLatency: 10 * sim.Microsecond},
	})
	c := r.nic.queues[0].coal.(*feedbackCoalescer)
	for i := 0; i < 20; i++ {
		r.inject(sim.Time(i)*300*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if got := c.Delay(); got >= 100*sim.Microsecond {
		t.Errorf("delay after latency overrun = %v, want < initial 100us", got)
	}
}

// TestFeedbackHoldsInsideGoal checks the hysteresis band: traffic whose
// per-packet interrupt rate sits between the low-water mark and the target
// leaves the delay alone (no oscillation in the steady state).
func TestFeedbackHoldsInsideGoal(t *testing.T) {
	r := newRig(t, Config{
		Strategy: StrategyFeedback,
		Delay:    20 * sim.Microsecond,
		// Packets every 30us with a 20us delay interrupt one-for-one:
		// ~33k intr/s, inside [0.5*target, target] for a 40k target, and
		// the ~20us waits stay inside the 60us latency budget.
		Feedback: FeedbackGoal{TargetIntrPerSec: 40_000, MaxLatency: 60 * sim.Microsecond},
	})
	c := r.nic.queues[0].coal.(*feedbackCoalescer)
	for i := 0; i < 200; i++ {
		r.inject(sim.Time(i)*30*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if got := c.Delay(); got != 20*sim.Microsecond {
		t.Errorf("delay moved to %v inside the goal band, want to hold at 20us", got)
	}
	if r.nic.Stats.FeedbackSteps != 0 {
		t.Errorf("FeedbackSteps = %d inside the goal band, want 0", r.nic.Stats.FeedbackSteps)
	}
}

// TestStrategyStringNegative checks String and Known agree on rejecting
// negative values (String used to index strategyNames with only an upper
// bound check, panicking on negatives).
func TestStrategyStringNegative(t *testing.T) {
	for _, v := range []int{-1, -2, -1 << 30} {
		s := Strategy(v)
		if s.Known() {
			t.Errorf("Known(%d) = true", v)
		}
		want := fmt.Sprintf("strategy(%d)", v)
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", v, got, want)
		}
	}
	if got := Strategy(99).String(); got != "strategy(99)" {
		t.Errorf("Strategy(99).String() = %q, want strategy(99)", got)
	}
}

// FuzzParseStrategy fuzzes the name -> Strategy -> name round trip: any
// accepted name must map to a known strategy whose String form re-parses to
// the same value.
func FuzzParseStrategy(f *testing.F) {
	for _, n := range strategyNames {
		f.Add(n)
	}
	f.Add("")
	f.Add("bogus")
	f.Add("strategy(-1)")
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseStrategy(name)
		if err != nil {
			return
		}
		if !s.Known() {
			t.Fatalf("ParseStrategy(%q) = %v, accepted but not Known", name, s)
		}
		if s.String() != name {
			t.Fatalf("round trip %q -> %v -> %q", name, int(s), s.String())
		}
		s2, err := ParseStrategy(s.String())
		if err != nil || s2 != s {
			t.Fatalf("re-parse %q = %v, %v; want %v", s.String(), s2, err, s)
		}
	})
}
