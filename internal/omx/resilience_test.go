package omx

import (
	"errors"
	"testing"

	"openmxsim/internal/fabric"
	"openmxsim/internal/sim"
)

// TestLargeSendGiveUpWithinBudget: with every frame lost, a rendezvous
// send must not retry forever — the backed-off retry train exhausts
// MaxResends, the handle fails with ErrGiveUp, and the engine drains
// within the budget's worth of virtual time.
func TestLargeSendGiveUpWithinBudget(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DropProb: 1})
	size := 64 << 10
	var h *SendHandle
	r.eng.After(0, func() {
		r.b.Irecv(1, ^uint64(0), nil, size, nil)
		h = r.a.Isend(r.b.Addr(), 1, nil, size, nil)
	})
	r.eng.Run()
	if h == nil || !errors.Is(h.Err, ErrGiveUp) {
		t.Fatalf("handle error = %v, want ErrGiveUp", handleErr(h))
	}
	p := &r.p.Proto
	if got := r.stackA.Stats.GiveUps; got != 1 {
		t.Errorf("GiveUps = %d, want 1", got)
	}
	// The first attempt waits the base timeout; every later one draws a
	// backed-off delay. MaxResends retries -> MaxResends backoffs.
	if got, want := r.stackA.Stats.Backoffs, uint64(p.MaxResends); got != want {
		t.Errorf("Backoffs = %d, want %d (one per retry past the first)", got, want)
	}
	// Budget bound: base + doublings capped at ResendBackoffMax, plus
	// <= d/8 jitter each. Generous factor-2 headroom on top.
	var budget sim.Time
	d := p.ResendTimeout
	for i := 0; i <= p.MaxResends; i++ {
		budget += d + d/8
		if d < p.ResendBackoffMax {
			d *= 2
			if d > p.ResendBackoffMax {
				d = p.ResendBackoffMax
			}
		}
	}
	if r.eng.Now() > 2*budget {
		t.Errorf("gave up at t=%v, want within 2x budget %v", r.eng.Now(), 2*budget)
	}
}

func handleErr(h *SendHandle) error {
	if h == nil {
		return errors.New("nil handle")
	}
	return h.Err
}

// TestSmallSendGiveUpCountsOnly pins the documented message-class
// semantics: a small send completes at buffered handoff, so a dead peer
// surfaces only in the robustness counters, never on the handle.
func TestSmallSendGiveUpCountsOnly(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DropProb: 1})
	sent := false
	var h *SendHandle
	r.eng.After(0, func() {
		h = r.a.Isend(r.b.Addr(), 1, nil, 64, func() { sent = true })
	})
	r.eng.Run()
	if !sent || h.Err != nil {
		t.Fatalf("small send should complete at handoff (sent=%v err=%v)", sent, h.Err)
	}
	if r.stackA.Stats.GiveUps == 0 {
		t.Error("channel give-up not counted")
	}
	if r.stackA.Stats.Backoffs == 0 {
		t.Error("retry train ran without arming a single backoff")
	}
}

// TestBackoffResetsOnProgress: a lossy-but-alive path must keep the
// retry delay near the base timeout — consecutive-failure state resets
// whenever an ack or fragment gets through, so moderate loss never
// walks a transfer toward the give-up cliff.
func TestBackoffResetsOnProgress(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DropProb: 0.2})
	size := 128 << 10
	var got *RecvHandle
	done := false
	r.eng.After(0, func() {
		r.b.Irecv(5, ^uint64(0), nil, size, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 5, nil, size, func() { done = true })
	})
	r.eng.Run()
	if got == nil || !done {
		t.Fatalf("transfer under 20%% loss did not complete (recv=%v send=%v)", got != nil, done)
	}
	if r.stackA.Stats.GiveUps+r.stackB.Stats.GiveUps != 0 {
		t.Error("transfer gave up despite making progress")
	}
}

// TestPullRequestAllocsNothing: a steady-state block request, the request
// frame and the block's retry timer, allocates nothing. The retry callback
// is bound once per endpoint and takes the block's record, made when the
// pull started, as its argument.
func TestPullRequestAllocsNothing(t *testing.T) {
	r := defaultRig(t)
	// b never announced message 7, so it drops each request as stale and
	// the pull stays open.
	r.a.startPull(r.b.Addr(), 7, 1<<20, 0, &RecvHandle{Cap: 1 << 20})
	ps := r.a.channelFor(r.b.Addr()).pullFor(7)
	if ps == nil {
		t.Fatal("startPull left no pull on the channel")
	}
	request := func() {
		r.a.issuePullRequest(&ps.blocks[0])
		r.eng.RunUntil(r.eng.Now() + 500*sim.Microsecond)
	}
	for i := 0; i < 64; i++ { // warm every free list on the path
		request()
	}
	sent := r.stackA.Stats.PullRequestsSent
	if got := testing.AllocsPerRun(200, request); got != 0 {
		t.Fatalf("a block request allocates %v objects in steady state, want 0", got)
	}
	if got := r.stackA.Stats.PullRequestsSent - sent; got < 200 {
		t.Fatalf("sent %d pull requests during the measurement, want >= 200", got)
	}
}
