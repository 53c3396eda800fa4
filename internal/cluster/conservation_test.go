package cluster_test

import (
	"fmt"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
)

// TestFrameConservation runs is.S.16 to completion on an unbounded and a
// drop-tail port, each with and without random loss, and checks that the
// fabric accounts for every frame the NICs sent: once the run drains, each
// one was either delivered or dropped, and every pooled frame is back in
// the cluster's pool.
func TestFrameConservation(t *testing.T) {
	// Two frames per port is small enough that drop-tail fires on is.S.16.
	bounded := fabric.Topology{Kind: fabric.TopologyOutputQueued, EgressQueueFrames: 2}
	for _, topo := range []fabric.Topology{{}, bounded} {
		for _, loss := range []float64{0, 0.02} {
			t.Run(fmt.Sprintf("qframes=%d/drop=%g", topo.EgressQueueFrames, loss), func(t *testing.T) {
				cfg := cluster.Paper()
				cfg.Topology = topo
				if loss > 0 {
					cfg.Fault = &fabric.Fault{DropProb: loss}
				}
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
				for _, n := range cl.NICs {
					sent += n.Stats.PacketsSent
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
				if topo.EgressQueueFrames > 0 && tail == 0 {
					t.Errorf("drop-tail never fired (sent %d)", sent)
				}
				if loss > 0 && dropped == tail {
					t.Errorf("no frame lost to the fault (sent %d)", sent)
				}
				t.Logf("sent %d = delivered %d + dropped %d", sent, delivered, dropped)
			})
		}
	}
}
