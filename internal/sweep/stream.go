package sweep

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
)

// StreamSpec describes a unidirectional message-rate measurement: a sender
// on node 0 keeps 8 back-to-back send chains running toward a receiver on
// node 1, which reposts wildcard receives. Above 256 KiB it runs 4 chains,
// because fewer large pulls already saturate the link. The receiver side
// is where interrupts matter (the paper's Table I is measured there).
// This is the canonical stream harness; the experiment runners in
// internal/exp delegate to it.
type StreamSpec struct {
	Cluster cluster.Config
	Size    int
	Warmup  sim.Time
	Measure sim.Time
}

// StreamResult is the receiver-side outcome of a stream measurement.
type StreamResult struct {
	// Rate is messages per second completed at the receiving application
	// during the measurement window.
	Rate float64
	// Interrupts and IntrRate cover the receiver NIC in the window.
	Interrupts uint64
	IntrRate   float64
	// Wakeups on the receiving host in the window.
	Wakeups uint64
	// Received is the raw message count in the window.
	Received int
}

// RunStream builds a cluster from the spec and runs the measurement. The
// cluster's Nodes is raised to 2 when too small. Like cluster.New on an
// invalid config, it panics with an error on a negative Size.
func RunStream(spec StreamSpec) StreamResult {
	if spec.Size < 0 {
		panic(fmt.Errorf("stream: invalid message size %d B: want >= 0", spec.Size))
	}
	chains := 8
	if spec.Size > 256<<10 {
		chains = 4
	}
	cfg := spec.Cluster
	cfg.Nodes = max(cfg.Nodes, 2)
	cl := cluster.New(cfg)
	// Application processes pinned away from the default IRQ core (core
	// 0). In Fig. 4's configurations the receiving core stays 95-100%
	// busy in user context, so it never enters C1E: every wake-up the host
	// counts is on an interrupt core, and delays interrupt handling, not
	// the receive loop. With round-robin IRQs some handlers run on the
	// receiving core itself and take up to 5% of it, which is where the
	// default curve dips.
	snd := cl.Stacks[0].Open(0, cl.Hosts[0].Cores[1])
	rcv := cl.Stacks[1].Open(0, cl.Hosts[1].Cores[1])

	received := 0
	// One completion closure reposts itself, so the steady-state receive
	// loop allocates only the handle Irecv returns.
	var onRecv func(*omx.RecvHandle)
	onRecv = func(*omx.RecvHandle) {
		received++
		rcv.Irecv(0, 0, nil, spec.Size, onRecv)
	}
	repost := func() { rcv.Irecv(0, 0, nil, spec.Size, onRecv) }
	dst := rcv.Addr()
	var chain func()
	chain = func() { snd.Isend(dst, 1, nil, spec.Size, chain) }

	// Receiver preposts and sender chains start on their own nodes' shard
	// engines (the same engine, in the same order, when unsharded).
	cl.ScheduleOn(1, 0, func() {
		for i := 0; i < 192; i++ {
			repost()
		}
	})
	cl.ScheduleOn(0, 0, func() {
		for i := 0; i < chains; i++ {
			chain()
		}
	})

	got, intr, wake := measureWindow(cl, 1, spec.Warmup, spec.Measure, &received)
	secs := float64(spec.Measure) / 1e9
	return StreamResult{
		Rate:       float64(got) / secs,
		Interrupts: intr,
		IntrRate:   float64(intr) / secs,
		Wakeups:    wake,
		Received:   got,
	}
}

// measureWindow runs the cluster through warmup+measure virtual time and
// returns the receiving node's message/interrupt/wakeup deltas over the
// measurement window (shared by the stream and incast harnesses). The
// start-of-window snapshot runs on the measured node's shard, so it reads
// that node's counters (and the harness's received counter, which only that
// node's events touch) without crossing shards; the end-of-window reads
// happen after RunUntil, with every shard quiesced at the same instant.
func measureWindow(cl *cluster.Cluster, node int, warmup, measure sim.Time, received *int) (got int, intr, wake uint64) {
	var startCount int
	var startIntr, startWake uint64
	cl.ScheduleOn(node, warmup, func() {
		startCount = *received
		startIntr = cl.NICs[node].Stats.Interrupts
		startWake = cl.Hosts[node].Stats().Wakeups
	})
	cl.RunUntil(warmup + measure)
	return *received - startCount,
		cl.NICs[node].Stats.Interrupts - startIntr,
		cl.Hosts[node].Stats().Wakeups - startWake
}
