package cluster_test

import (
	"fmt"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
)

// TestFrameConservation runs is.S.16 to completion on an unbounded and a
// drop-tail port, each with and without random loss, under each of the
// paper's four strategies, and checks that the fabric accounts for every
// frame the NICs sent: once the run drains, each one was either delivered
// or dropped, and every pooled frame is back in the cluster's pool. It
// also checks each NIC's interrupt accounting. Transmit completions share
// the completion ring, and the interrupt, with received packets, so the
// driver polls every packet received and every packet sent. Each
// interrupt starts a NAPI poll session, and a session that exhausts its
// budget starts another without one, so interrupts never outnumber
// sessions. Interrupts can outnumber received packets: a sender's
// interrupts mostly retire its own transmissions.
func TestFrameConservation(t *testing.T) {
	// Two frames per port is small enough that drop-tail fires on is.S.16.
	bounded := fabric.Topology{Kind: fabric.TopologyOutputQueued, EgressQueueFrames: 2}
	strategies := []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX, nic.StrategyStream}
	for _, topo := range []fabric.Topology{{}, bounded} {
		for _, loss := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("qframes=%d/drop=%g", topo.EgressQueueFrames, loss), func(t *testing.T) {
				for _, st := range strategies {
					t.Run(st.String(), func(t *testing.T) {
						cfg := cluster.Paper()
						cfg.Strategy = st
						cfg.Topology = topo
						if loss > 0 {
							cfg.Fault = &fabric.Fault{DropProb: loss}
						}
						checkConservation(t, cfg, topo.EgressQueueFrames > 0, loss > 0)
					})
				}
			})
		}
	}
}

// checkConservation runs is.S.16 on cfg until it drains and checks the
// accounting TestFrameConservation describes. tailDrops and faultDrops
// say which kinds of loss must have happened.
func checkConservation(t *testing.T, cfg cluster.Config, tailDrops, faultDrops bool) {
	t.Helper()
	wl, err := nas.Get("is", 'S', 16)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpoints(wl.Ranks/cfg.Nodes))
	cm := wl.Setup(w)
	if _, err := w.Run(func(r *mpi.Rank) { wl.Body(r, w, cm) }); err != nil {
		t.Fatal(err)
	}
	var sent uint64
	for i, n := range cl.NICs {
		s := n.Stats
		sent += s.PacketsSent
		if s.Interrupts > s.PollCycles {
			t.Errorf("NIC %d: %d interrupts but only %d poll sessions", i, s.Interrupts, s.PollCycles)
		}
		if s.PacketsPolled != s.PacketsReceived+s.PacketsSent {
			t.Errorf("NIC %d: polled %d packets, want received %d + sent %d = %d",
				i, s.PacketsPolled, s.PacketsReceived, s.PacketsSent, s.PacketsReceived+s.PacketsSent)
		}
	}
	delivered, dropped := cl.Switch.FramesDelivered(), cl.Switch.FramesDropped()
	if sent != delivered+dropped {
		t.Errorf("sent %d frames, delivered %d + dropped %d = %d", sent, delivered, dropped, delivered+dropped)
	}
	if n := cl.Pool.Outstanding(); n != 0 {
		t.Errorf("%d pooled frames still referenced after the run drained", n)
	}
	var tail uint64
	for i := range cl.NICs {
		tail += cl.PortStats(i).Drops
	}
	if tailDrops && tail == 0 {
		t.Errorf("drop-tail never fired (sent %d)", sent)
	}
	if faultDrops && dropped == tail {
		t.Errorf("no frame lost to the fault (sent %d)", sent)
	}
	t.Logf("sent %d = delivered %d + dropped %d", sent, delivered, dropped)
}
