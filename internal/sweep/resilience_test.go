package sweep

import (
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"openmxsim/internal/chaos"
	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

func incastSpec(par int, sc *chaos.Scenario, seed uint64) IncastSpec {
	cfg := cluster.Paper()
	cfg.Seed = seed
	cfg.Parallelism = par
	cfg.Topology = fabric.Topology{
		Kind:              fabric.TopologyOutputQueued,
		EgressQueueFrames: 64,
	}
	cfg.Scenario = sc
	return IncastSpec{
		Cluster: cfg,
		Senders: 4,
		Size:    128,
		Warmup:  2 * sim.Millisecond,
		// Long enough past the 10ms base resend timeout that lost small
		// messages actually retransmit inside the run.
		Measure: 14 * sim.Millisecond,
	}
}

// TestProtoCountersBitIdenticalAcrossPar is the robustness layer's
// determinism gate: the full incast result — rate, drops, and every
// protocol recovery counter — must be bit-identical between the serial
// reference engine and any shard count, with a bursty-loss scenario
// active. The chaos engine keys its chains and RNG streams by source
// node precisely so this holds.
func TestProtoCountersBitIdenticalAcrossPar(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		sc := &chaos.Scenario{Loss: chaos.Bursty(0.02, 8), Seed: seed}
		serial := RunIncast(incastSpec(1, sc, seed))
		if serial.Proto.Retransmits == 0 && serial.Proto.PullRetries == 0 && serial.Proto.Backoffs == 0 {
			t.Errorf("seed %d: 2%% bursty loss produced no recovery work — scenario not wired", seed)
		}
		for _, par := range []int{2, 4, 8} {
			sharded := RunIncast(incastSpec(par, sc, seed))
			// reflect.DeepEqual: IncastResult grew a port-stats slice, so ==
			// no longer compiles; the check stays exhaustive.
			if !reflect.DeepEqual(sharded, serial) {
				t.Errorf("seed %d: incast result differs between par 1 and par %d:\npar 1: %+v\npar %d: %+v",
					seed, par, serial, par, sharded)
			}
		}
	}
}

// TestFaultFilterConcurrencyContract exercises the documented
// Fault.Filter thread-safety contract: under Parallelism > 1 the filter
// runs concurrently from every shard goroutine, so a contract-compliant
// filter (atomic counter, pure decision) must work — and this test is
// the -race probe that the fabric's shard-owned send paths really do
// invoke it without an unsynchronized write in the framework itself.
func TestFaultFilterConcurrencyContract(t *testing.T) {
	var inspected atomic.Uint64
	cfg := cluster.Paper()
	cfg.Seed = 1
	cfg.Parallelism = 4
	cfg.Topology = fabric.Topology{
		Kind:              fabric.TopologyOutputQueued,
		EgressQueueFrames: 64,
	}
	cfg.Fault = &fabric.Fault{
		DropProb: 0.01,
		// Pure decision + atomic side effect: the contract's worked example.
		Filter: func(f *wire.Frame) bool {
			inspected.Add(1)
			return true
		},
	}
	res := RunIncast(IncastSpec{
		Cluster: cfg,
		Senders: 4,
		Size:    128,
		Warmup:  sim.Millisecond,
		Measure: 4 * sim.Millisecond,
	})
	if inspected.Load() == 0 {
		t.Fatal("filter never consulted")
	}
	if res.Received == 0 {
		t.Fatal("no traffic flowed under the filtered fault")
	}
}

// TestGridDropAxes pins the loss-axis plumbing: a zero DropProb point
// must install no scenario at all (bit-identical to the pre-loss grid),
// a positive one installs a Bursty chain seeded from the point's seed,
// and out-of-range values are rejected before any point runs.
func TestGridDropAxes(t *testing.T) {
	g := Grid{DropProb: []float64{0, 0.02}, Burst: []float64{4}}.normalized()
	pts := g.Points()
	var clean, lossy *Point
	for i := range pts {
		if pts[i].DropProb == 0 {
			clean = &pts[i]
		} else {
			lossy = &pts[i]
		}
	}
	if clean == nil || lossy == nil {
		t.Fatalf("axis expansion lost points: %+v", pts)
	}
	if cfg := clean.Config(); cfg.Scenario != nil {
		t.Error("DropProb=0 installed a scenario")
	}
	cfg := lossy.Config()
	if cfg.Scenario == nil || cfg.Scenario.Loss == nil {
		t.Fatal("DropProb=0.02 installed no loss scenario")
	}
	if got := cfg.Scenario.Loss.Loss(); got < 0.019 || got > 0.021 {
		t.Errorf("scenario stationary loss = %g, want 0.02", got)
	}
	if cfg.Scenario.Seed != lossy.Seed {
		t.Errorf("scenario seed %d != point seed %d", cfg.Scenario.Seed, lossy.Seed)
	}

	if _, err := Run(Grid{DropProb: []float64{1}, Iters: 1}, 1); err == nil {
		t.Error("DropProb=1 accepted (certain loss can never complete a ping-pong)")
	}
	if _, err := Run(Grid{Burst: []float64{-2}, Iters: 1}, 1); err == nil {
		t.Error("negative burst accepted")
	}
	// NaN and infinite bursts fail the range checks instead of running
	// clean.
	nan := math.NaN()
	for _, g := range []Grid{
		{DropProb: []float64{nan}},
		{DropProb: []float64{0.02}, Burst: []float64{nan}},
		{DropProb: []float64{0.02}, Burst: []float64{math.Inf(1)}},
	} {
		g.Iters = 1
		_, err := Run(g, 1)
		if err == nil || !strings.Contains(err.Error(), "invalid") {
			t.Errorf("drop %v burst %v: error %v, want a range error", g.DropProb, g.Burst, err)
		}
	}
}
