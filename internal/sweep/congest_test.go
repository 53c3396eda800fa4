package sweep

import (
	"bytes"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

func TestGridExpandsNodeAndBackgroundAxes(t *testing.T) {
	g := Grid{
		Strategies: []nic.Strategy{nic.StrategyTimeout},
		Nodes:      []int{2, 4},
		BgStreams:  []int{0, 2},
	}
	if got := g.Size(); got != 4 {
		t.Fatalf("Size() = %d, want 4", got)
	}
	pts := g.Points()
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	// bg innermost: (2,0) (2,2) (4,0) (4,2).
	want := [][2]int{{2, 0}, {2, 2}, {4, 0}, {4, 2}}
	for i, p := range pts {
		if p.Nodes != want[i][0] || p.BgStreams != want[i][1] {
			t.Errorf("point %d = nodes %d, bg %d; want %v", i, p.Nodes, p.BgStreams, want[i])
		}
	}
	// A 2-node point with 2 background streams builds a 4-node cluster.
	if cfg := pts[1].Config(); cfg.Nodes != 4 {
		t.Errorf("bg=2 point expanded to %d nodes, want 4", cfg.Nodes)
	}
}

func TestDefaultGridUnchangedByNewAxes(t *testing.T) {
	var g Grid
	pts := g.Points()
	if len(pts) != 1 {
		t.Fatalf("zero grid expands to %d points, want 1", len(pts))
	}
	if pts[0].Nodes != 2 || pts[0].BgStreams != 0 {
		t.Errorf("zero grid point = nodes %d, bg %d; want 2, 0", pts[0].Nodes, pts[0].BgStreams)
	}
	if cfg := pts[0].Config(); cfg.Nodes != cluster.Paper().Nodes {
		t.Errorf("zero grid config nodes = %d, want paper default", cfg.Nodes)
	}
}

// TestBackgroundLoadRaisesPingPongLatency checks the congestion mechanism
// end to end: bulk streams sharing the receiver's port must slow the
// latency-sensitive ping-pong down.
func TestBackgroundLoadRaisesPingPongLatency(t *testing.T) {
	cfg := cluster.Paper()
	sizes := []int{4 << 10}
	const iters = 6
	base, err := RunPingPong(cfg, sizes, iters, Background{})
	if err != nil {
		t.Fatalf("unloaded: %v", err)
	}
	loaded, err := RunPingPong(cfg, sizes, iters, Background{Streams: 2})
	if err != nil {
		t.Fatalf("loaded: %v", err)
	}
	if loaded.Messages == 0 {
		t.Fatal("loaded run reported no messages")
	}
	if loaded.Latency[sizes[0]] <= base.Latency[sizes[0]] {
		t.Errorf("background load did not slow the ping-pong: base %v, loaded %v",
			base.Latency[sizes[0]], loaded.Latency[sizes[0]])
	}
}

// TestIncastFanIn checks the incast harness: more senders converge more
// messages on the receiver, and a shallow output-queued buffer records
// congestion (occupancy, and under enough fan-in, drops).
func TestIncastFanIn(t *testing.T) {
	run := func(senders int) IncastResult {
		cfg := cluster.Paper()
		cfg.Topology = fabric.Topology{Kind: fabric.TopologyOutputQueued, EgressQueueFrames: 32}
		return RunIncast(IncastSpec{
			Cluster: cfg, Senders: senders, Size: 128,
			Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond,
		})
	}
	r2, r4 := run(2), run(4)
	if r2.Received == 0 || r4.Received == 0 {
		t.Fatalf("incast received nothing: %d, %d", r2.Received, r4.Received)
	}
	if r4.Rate <= r2.Rate {
		t.Errorf("rate did not grow with fan-in: 2 senders %.0f/s, 4 senders %.0f/s", r2.Rate, r4.Rate)
	}
	if r4.MaxQueueFrames == 0 {
		t.Error("4-way incast never queued at the egress port")
	}
	if r4.Interrupts == 0 {
		t.Error("incast raised no interrupts")
	}
}

// TestLoadedSweepDeterministicAcrossWorkers runs a grid with node and
// background axes at 1 and 4 workers and requires byte-identical JSON.
func TestLoadedSweepDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Strategies: []nic.Strategy{nic.StrategyTimeout, nic.StrategyOpenMX},
		Sizes:      []int{128},
		BgStreams:  []int{0, 1},
		Iters:      3,
	}
	r1, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.JSON()
	j4, _ := r4.JSON()
	if !bytes.Equal(j1, j4) {
		t.Error("loaded sweep JSON differs between 1 and 4 workers")
	}
	for _, r := range r1 {
		if r.Err != "" {
			t.Errorf("point %d failed: %s", r.Index, r.Err)
		}
		if r.BgStreams > 0 && r.Nodes < 2+r.BgStreams {
			t.Errorf("point %d: nodes %d < 2+bg %d", r.Index, r.Nodes, r.BgStreams)
		}
	}
}
