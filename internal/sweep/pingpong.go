package sweep

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/proc"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// PingPongOutcome bundles everything one ping-pong measurement produces:
// the per-size latency map, the interrupt/message totals, the summed
// protocol counters, and — under the output-queued topology — a per-node
// snapshot of the switch's egress-port counters (nil in the direct model,
// whose ideal ports have no queue to report).
type PingPongOutcome struct {
	Latency    map[int]sim.Time
	Interrupts uint64
	Messages   int
	Proto      trace.Proto
	Ports      []fabric.PortStats
}

// portSnapshots captures every node's egress-port counters for queued
// topologies; the direct model reports nil.
func portSnapshots(cl *cluster.Cluster) []fabric.PortStats {
	if cl.Cfg.Topology.Kind != fabric.TopologyOutputQueued {
		return nil
	}
	ps := make([]fabric.PortStats, cl.Cfg.Nodes)
	for i := range ps {
		ps[i] = cl.PortStats(i)
	}
	return ps
}

// RunPingPong is the ping-pong harness that the experiment runners, the
// sweep executor, omxsim and the public API all share: mean one-way
// transfer time per message size between two ranks on nodes 0 and 1,
// plus the interrupt total and the number of messages it covers.
//
// With bg.Streams > 0 the same ping-pong runs under background
// congestion: bulk senders on extra nodes aimed at node 1 (see
// Background), with cfg.Nodes raised to 2+bg.Streams when too small. The
// interrupt total then covers the two ping-pong nodes' NICs only; the bulk
// senders' interrupt load is background, not measurement. Node 1's count
// does include interrupts its NIC raises for background arrivals — sharing
// the receive path is exactly the congestion under study. Without
// background streams the total covers every NIC in the cluster.
//
// An argument out of range returns an error before any cluster is built:
// iters < 1, a negative size, cfg.Nodes < 2, bg.Streams < 0, or a cfg
// that fails Validate.
func RunPingPong(cfg cluster.Config, sizes []int, iters int, bg Background) (PingPongOutcome, error) {
	if err := checkPingPong(cfg, sizes, iters, bg); err != nil {
		return PingPongOutcome{}, err
	}
	if bg.Streams > 0 {
		return runLoadedPingPong(cfg, sizes, iters, bg)
	}
	// The two ranks share the result map and panic slot in runPingPong, so
	// the harness stays on the single-engine reference at any requested
	// parallelism (a 2-node ping-pong has nothing to shard anyway).
	cfg.Parallelism = 1
	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpoints(1))
	res, msgs, err := runPingPong(w, sizes, iters, nil)
	return PingPongOutcome{
		Latency:    res,
		Interrupts: cl.Interrupts(),
		Messages:   msgs,
		Proto:      cl.Proto(),
		Ports:      portSnapshots(cl),
	}, err
}

func checkPingPong(cfg cluster.Config, sizes []int, iters int, bg Background) error {
	if iters < 1 {
		return fmt.Errorf("ping-pong: invalid iteration count %d: want >= 1", iters)
	}
	for _, size := range sizes {
		if size < 0 {
			return fmt.Errorf("ping-pong: invalid message size %d B: want >= 0", size)
		}
	}
	if cfg.Nodes < 2 {
		return fmt.Errorf("ping-pong: invalid node count %d: want >= 2", cfg.Nodes)
	}
	if bg.Streams < 0 {
		return fmt.Errorf("ping-pong: invalid background stream count %d: want >= 0", bg.Streams)
	}
	return cfg.Validate()
}

// runPingPong drives the two-rank measurement body on a prepared world:
// rank 0 times warmup+iters round trips per size against rank 1. onFinish,
// when non-nil, runs as soon as either rank leaves its loop (or panics) —
// the loaded variant uses it to quench background traffic so the engine
// can drain.
//
// A panic inside a rank body would unwind through World.Run and leave the
// partner rank parked; the per-rank recover below converts it into an
// error instead (the partner rank then deadlocks, which World.Run reports
// and tears down cleanly).
func runPingPong(w *mpi.World, sizes []int, iters int, onFinish func()) (map[int]sim.Time, int, error) {
	c := w.CommWorld()
	const warmup = 2
	res := make(map[int]sim.Time, len(sizes))
	var rankPanic error
	_, err := w.Run(func(r *mpi.Rank) {
		defer func() {
			if p := recover(); p != nil {
				if proc.IsKill(p) {
					panic(p)
				}
				if rankPanic == nil {
					rankPanic = fmt.Errorf("rank %d panicked: %v", r.ID, p)
				}
				if onFinish != nil {
					onFinish()
				}
			}
		}()
		for si, size := range sizes {
			tag := 100 + si
			switch r.ID {
			case 0:
				for k := 0; k < warmup; k++ {
					r.Send(c, 1, tag, nil, size)
					r.Recv(c, 1, tag, nil, size)
				}
				t0 := r.Now()
				for k := 0; k < iters; k++ {
					r.Send(c, 1, tag, nil, size)
					r.Recv(c, 1, tag, nil, size)
				}
				res[size] = (r.Now() - t0) / sim.Time(2*iters)
			case 1:
				for k := 0; k < warmup+iters; k++ {
					r.Recv(c, 0, tag, nil, size)
					r.Send(c, 0, tag, nil, size)
				}
			}
		}
		if onFinish != nil {
			onFinish()
		}
	})
	msgs := 2 * (warmup + iters) * len(sizes)
	if rankPanic != nil {
		if err != nil {
			err = fmt.Errorf("%v (%v)", rankPanic, err)
		} else {
			err = rankPanic
		}
		msgs = 0
	}
	return res, msgs, err
}
