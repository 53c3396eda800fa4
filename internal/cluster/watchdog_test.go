package cluster

import (
	"errors"
	"strings"
	"testing"

	"openmxsim/internal/chaos"
	"openmxsim/internal/fabric"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
)

// TestRunWatchedDrainsCleanly: an ordinary exchange under the watchdog
// completes exactly like Run — the watchdog stays quiet.
func TestRunWatchedDrainsCleanly(t *testing.T) {
	c := New(Paper())
	eps := c.OpenEndpoints(1)
	done := false
	eps[1].Irecv(0, 0, nil, 4096, nil)
	c.ScheduleOn(0, 0, func() {
		eps[0].Isend(c.Addr(1, 0), 1, nil, 4096, func() { done = true })
	})
	if err := c.RunWatched(0); err != nil {
		t.Fatalf("watchdog fired on a healthy run: %v", err)
	}
	if !done {
		t.Fatal("send never completed")
	}
}

// TestRunWatchedPermanentFlapGivesUp is the PR's acceptance scenario: a
// large (rendezvous) send into a permanently-down link must terminate
// with ErrGiveUp on the handle within the retry budget — and because the
// retry train is bounded, the engines drain and the watchdog never fires.
func TestRunWatchedPermanentFlapGivesUp(t *testing.T) {
	const size = 64 << 10 // rendezvous path: handle completes only on peer receipt
	cfg := Paper()
	cfg.Scenario = &chaos.Scenario{
		Flaps: []chaos.LinkFlap{{Node: 1, DownAt: sim.Millisecond}}, // UpAt 0 = never back
		Seed:  1,
	}
	c := New(cfg)
	eps := c.OpenEndpoints(1)
	var h *omx.SendHandle
	eps[1].Irecv(0, 0, nil, size, nil)
	c.ScheduleOn(0, 2*sim.Millisecond, func() {
		h = eps[0].Isend(c.Addr(1, 0), 1, nil, size, nil)
	})

	if err := c.RunWatched(5 * sim.Second); err != nil {
		t.Fatalf("bounded give-up should drain quietly, watchdog fired: %v", err)
	}
	if h == nil {
		t.Fatal("send never launched")
	}
	if !errors.Is(h.Err, omx.ErrGiveUp) {
		t.Fatalf("handle error = %v, want ErrGiveUp", h.Err)
	}
	// The retry budget bounds virtual time: MaxResends=8 exponential
	// backoffs capped at 100ms is well under a second.
	if c.Now() > 2*sim.Second {
		t.Errorf("give-up took %v of virtual time — retry train not bounded", c.Now())
	}
	var giveUps uint64
	for _, s := range c.Stacks {
		giveUps += s.Stats.GiveUps
	}
	if giveUps == 0 {
		t.Error("no give-up counted in stack stats")
	}
}

// TestRunWatchedTransientFlapRecovers: the same send against a flap that
// ends inside the retry budget completes normally.
func TestRunWatchedTransientFlapRecovers(t *testing.T) {
	const size = 64 << 10
	cfg := Paper()
	cfg.Scenario = &chaos.Scenario{
		Flaps: []chaos.LinkFlap{{Node: 1, DownAt: sim.Millisecond, UpAt: 41 * sim.Millisecond}},
		Seed:  1,
	}
	c := New(cfg)
	eps := c.OpenEndpoints(1)
	done := false
	var h *omx.SendHandle
	eps[1].Irecv(0, 0, nil, size, nil)
	c.ScheduleOn(0, 2*sim.Millisecond, func() {
		h = eps[0].Isend(c.Addr(1, 0), 1, nil, size, func() { done = true })
	})
	if err := c.RunWatched(5 * sim.Second); err != nil {
		t.Fatalf("watchdog fired on a recovering run: %v", err)
	}
	if !done || h.Err != nil {
		t.Fatalf("send did not recover after the link returned (done=%v err=%v)", done, h.Err)
	}
	var retx uint64
	for _, s := range c.Stacks {
		retx += s.Stats.Retransmits
	}
	if retx == 0 {
		t.Error("a 40ms outage should have forced at least one retransmit")
	}
	if c.FlapEdges() != 2 {
		t.Errorf("flap edge markers = %d, want 2 (down + up)", c.FlapEdges())
	}
}

// TestRunWatchedCatchesWedge plants a self-rearming timer that moves no
// frames: event execution alone is not progress, so the watchdog must
// fail the run with diagnostics instead of spinning forever.
func TestRunWatchedCatchesWedge(t *testing.T) {
	c := New(Paper())
	var spin func()
	spin = func() { c.Eng.After(sim.Millisecond, spin) }
	c.Eng.After(0, spin)

	err := c.RunWatched(0)
	var we *WedgeError
	if !errors.As(err, &we) {
		t.Fatalf("RunWatched = %v, want *WedgeError", err)
	}
	if !strings.Contains(we.Diagnostics, "engine[0]") || !strings.Contains(we.Diagnostics, "node[0]") {
		t.Errorf("diagnostics missing engine/node snapshot:\n%s", we.Diagnostics)
	}
	// Fired after a few intervals, not after hours of virtual time.
	if we.At > sim.Second {
		t.Errorf("watchdog fired at %v, expected within a few intervals", we.At)
	}
}

// TestRunWatchedMaxVirtual: the absolute budget fails a run whose next
// event lies beyond it, even if the run is making progress.
func TestRunWatchedMaxVirtual(t *testing.T) {
	c := New(Paper())
	c.Eng.After(3*sim.Second, func() {})
	err := c.RunWatched(sim.Second)
	var we *WedgeError
	if !errors.As(err, &we) {
		t.Fatalf("RunWatched = %v, want *WedgeError for budget overrun", err)
	}
	if !strings.Contains(we.Reason, "budget") {
		t.Errorf("reason = %q, want a virtual-time budget message", we.Reason)
	}
}

// TestScenarioComposesWithStaticFault: installing a scenario must not
// discard configured static fault probabilities — the hook decides first,
// the static draws still apply to frames it lets through.
func TestScenarioComposesWithStaticFault(t *testing.T) {
	const size = 64 << 10
	cfg := Paper()
	cfg.Fault = &fabric.Fault{DropProb: 1}
	cfg.Scenario = &chaos.Scenario{Seed: 1} // empty scenario, hook installed
	c := New(cfg)
	eps := c.OpenEndpoints(1)
	eps[1].Irecv(0, 0, nil, size, nil)
	var h *omx.SendHandle
	c.ScheduleOn(0, 0, func() {
		h = eps[0].Isend(c.Addr(1, 0), 1, nil, size, nil)
	})
	if err := c.RunWatched(5 * sim.Second); err != nil {
		t.Fatalf("bounded give-up should drain quietly, watchdog fired: %v", err)
	}
	if h == nil || !errors.Is(h.Err, omx.ErrGiveUp) {
		t.Fatalf("static DropProb=1 under a scenario did not give up (h=%v)", h)
	}
}
