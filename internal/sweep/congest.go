package sweep

import (
	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// Background describes bulk traffic congesting the ping-pong receiver's
// port: Streams senders (one per extra node, nodes 2..2+Streams-1) each
// keep one back-to-back chain of bgSize sends running toward a dedicated
// endpoint on node 1, so their frames share node 1's egress port and
// receive path with the latency-sensitive ping-pong.
type Background struct {
	// Streams is the number of background bulk senders (0 = no load).
	Streams int
}

// bgSize is the background bulk message size: large enough for the
// rendezvous/pull path, the paper's throughput regime.
const bgSize = 64 << 10

// runLoadedPingPong is RunPingPong with bg.Streams > 0 background bulk
// senders on nodes 2.. aimed at node 1. The background chains stop
// re-arming once the ping-pong measurement completes, so the engine drains
// and the MPI world terminates normally.
func runLoadedPingPong(cfg cluster.Config, sizes []int, iters int, bg Background) (PingPongOutcome, error) {
	if min := 2 + bg.Streams; cfg.Nodes < min {
		cfg.Nodes = min
	}
	// This harness is engine-global by construction: the stop flag is
	// shared by the quench hook, the watchdog and every sender chain, and
	// the watchdog on node 0's engine reads node-0 stack counters while
	// chains run on other nodes. Sharding it would race all of that for no
	// gain (the loaded ping-pong is latency-, not throughput-bound), so it
	// always runs the reference single-engine simulation.
	cfg.Parallelism = 1

	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpointsOn([]int{0, 1}, 1))

	// Background plumbing: sender endpoint 0 on each bulk node, one
	// dedicated receiving endpoint per stream on node 1 (ids 1..Streams,
	// clear of the MPI rank's endpoint 0), all pinned off core 0 where the
	// ping-pong rank spins.
	stop := false
	for i := 0; i < bg.Streams; i++ {
		node := 2 + i
		sndCores := cl.Hosts[node].Cores
		snd := cl.Stacks[node].Open(0, sndCores[1%len(sndCores)])
		rcvCores := cl.Hosts[1].Cores
		rcv := cl.Stacks[1].Open(uint8(1+i), rcvCores[(2+i)%len(rcvCores)])

		var onRecv func(*omx.RecvHandle)
		onRecv = func(*omx.RecvHandle) { rcv.Irecv(0, 0, nil, bgSize, onRecv) }
		dst := rcv.Addr()
		var chain func()
		chain = func() {
			if stop {
				return
			}
			snd.Isend(dst, 1, nil, bgSize, chain)
		}
		cl.Eng.After(0, func() {
			for k := 0; k < 32; k++ {
				rcv.Irecv(0, 0, nil, bgSize, onRecv)
			}
			chain()
		})
	}

	// A wedged ping-pong (mutual rank deadlock) would otherwise keep the
	// self-re-arming chains alive forever and the engine would never drain
	// — defeating World.Run's runs-dry deadlock detection. The watchdog
	// quenches the chains when node 0 (which carries only ping-pong
	// traffic, retransmissions included) goes silent for a full interval,
	// letting the engine empty so Run reports the stuck ranks.
	const watchdogInterval = 50 * sim.Millisecond
	lastActivity := ^uint64(0)
	var watchdog func()
	watchdog = func() {
		if stop {
			return
		}
		cur := cl.Stacks[0].Stats.PacketsIn + cl.Stacks[0].Stats.PacketsOut
		if cur == lastActivity {
			stop = true
			return
		}
		lastActivity = cur
		cl.Eng.After(watchdogInterval, watchdog)
	}
	cl.Eng.After(watchdogInterval, watchdog)

	// Whichever rank finishes first quenches the background chains so
	// in-flight bulk transfers drain and the engine can empty.
	res, msgs, err := runPingPong(w, sizes, iters, func() { stop = true })
	intr := cl.NICs[0].Stats.Interrupts + cl.NICs[1].Stats.Interrupts
	return PingPongOutcome{
		Latency:    res,
		Interrupts: intr,
		Messages:   msgs,
		Proto:      cl.Proto(),
		Ports:      portSnapshots(cl),
	}, err
}

// IncastSpec describes an N-to-1 fan-in measurement: Senders nodes blast
// size-byte messages at one receiver node (node 0), whose egress port,
// receive ring, and interrupt path absorb the convergence.
type IncastSpec struct {
	// Cluster is the testbed configuration; Nodes is raised to Senders+1
	// when too small. Select an output-queued Topology to bound the
	// receiver's switch buffer.
	Cluster cluster.Config
	// Senders is the fan-in (>= 1); senders live on nodes 1..Senders.
	Senders int
	// Size is the message size; <= 0 selects 128 B (the paper's
	// small-message regime, where per-message interrupt cost dominates).
	Size int
	// Chains is the number of concurrent send chains per sender; <= 0
	// selects 2.
	Chains int
	// Warmup and Measure bound the measurement window.
	Warmup, Measure sim.Time
}

// IncastResult is the receiver-side outcome of an incast measurement.
type IncastResult struct {
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
	// PortDrops counts drop-tail losses at the receiver's egress port over
	// the whole run (0 under the direct topology).
	PortDrops uint64
	// MaxQueueFrames is the receiver port's queue high-water mark.
	MaxQueueFrames int
	// QueueWaitNS is the mean per-frame egress queueing delay in ns.
	QueueWaitNS float64
	// Proto sums the protocol counters over all nodes.
	Proto trace.Proto
	// Ports holds every node's egress-port statistics when the topology is
	// output-queued (nil under the direct topology, which has no ports).
	Ports []fabric.PortStats
}

// RunIncast builds a cluster from the spec and runs the fan-in measurement.
func RunIncast(spec IncastSpec) IncastResult {
	if spec.Senders < 1 {
		spec.Senders = 1
	}
	if spec.Size <= 0 {
		spec.Size = 128
	}
	if spec.Chains <= 0 {
		spec.Chains = 2
	}
	cfg := spec.Cluster
	if min := spec.Senders + 1; cfg.Nodes < min {
		cfg.Nodes = min
	}
	cl := cluster.New(cfg)

	// Receiver on node 0, pinned off the IRQ core like the stream harness;
	// one sender endpoint per fan-in node.
	rcv := cl.Stacks[0].Open(0, cl.Hosts[0].Cores[1])
	received := 0
	var onRecv func(*omx.RecvHandle)
	onRecv = func(*omx.RecvHandle) {
		received++
		rcv.Irecv(0, 0, nil, spec.Size, onRecv)
	}
	dst := rcv.Addr()
	for i := 0; i < spec.Senders; i++ {
		node := 1 + i
		cores := cl.Hosts[node].Cores
		snd := cl.Stacks[node].Open(0, cores[1%len(cores)])
		var chain func()
		chain = func() { snd.Isend(dst, 1, nil, spec.Size, chain) }
		// Each sender chain lives on its own node's shard engine; the
		// chains never touch shared harness state, which is what lets the
		// incast shard cleanly.
		cl.ScheduleOn(node, 0, func() {
			for k := 0; k < spec.Chains; k++ {
				chain()
			}
		})
	}
	cl.ScheduleOn(0, 0, func() {
		for k := 0; k < 192+64*spec.Senders; k++ {
			rcv.Irecv(0, 0, nil, spec.Size, onRecv)
		}
	})

	got, intr, wake := measureWindow(cl, 0, spec.Warmup, spec.Measure, &received)
	secs := float64(spec.Measure) / 1e9
	port := cl.PortStats(0)
	var wait float64
	if port.Enqueued > 0 {
		wait = float64(port.QueueWait) / float64(port.Enqueued)
	}
	return IncastResult{
		Rate:           float64(got) / secs,
		Interrupts:     intr,
		IntrRate:       float64(intr) / secs,
		Wakeups:        wake,
		Received:       got,
		PortDrops:      port.Drops,
		MaxQueueFrames: port.MaxQueueFrames,
		QueueWaitNS:    wait,
		Proto:          cl.Proto(),
		Ports:          portSnapshots(cl),
	}
}
