// Package cluster wires complete simulated testbeds: N hosts with their
// cores, NICs with a chosen coalescing strategy, the switch between them,
// and an Open-MX stack per node — the equivalent of the paper's two
// dual-socket quad-core Xeon nodes with Myri-10G NICs.
package cluster

import (
	"fmt"

	"openmxsim/internal/chaos"
	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// MaxNodes bounds Config.Nodes. Every node gets a host, a NIC, an Open-MX
// stack and, in MPI harnesses, a rank, so the bound keeps one request
// from building millions of them. No experiment, example or benchmark
// workload builds more than 64.
const MaxNodes = 4096

// Config describes a testbed.
type Config struct {
	// Nodes is the host count (paper: 2), at most MaxNodes.
	Nodes int
	// Topology bounds the switch's egress queues. The zero value leaves
	// them unbounded, as on the paper's two-host link; TopologyOutputQueued
	// bounds them with drop-tail for N-node congestion scenarios. Every
	// topology reports per-port stats and shards under Parallelism.
	Topology fabric.Topology
	// Strategy and CoalesceDelay select the NIC interrupt behaviour.
	Strategy      nic.Strategy
	CoalesceDelay sim.Time
	// Feedback is the goal for StrategyFeedback (ignored by the other
	// strategies; zero fields fall back to the params defaults). The
	// tuner in internal/tune derives a goal from the chosen tradeoff
	// point.
	Feedback nic.FeedbackGoal
	// Queues > 1 enables the multiqueue extension.
	Queues int
	// IRQPolicy sets interrupt routing (default round-robin); single-core
	// routing binds every interrupt to core 0.
	IRQPolicy host.IRQPolicy
	// SleepDisabled keeps idle cores out of C1E ("Sleeping disabled").
	SleepDisabled bool
	// Seed drives all stochastic elements; equal seeds reproduce runs
	// bit for bit.
	Seed uint64
	// Parallelism shards the simulation across this many engines running
	// on their own goroutines under the conservative synchronizer (see
	// internal/sim.Group): nodes are split into contiguous shards and
	// cross-node traffic crosses shards through the fabric's lookahead
	// window. Reports are bit-identical at every value. <= 1 runs the
	// classic single-engine simulation, and so does a link whose
	// propagation and switch latency are both zero (no lookahead); the
	// value is clamped to the node count.
	Parallelism int
	// Params overrides the calibrated defaults when non-nil.
	Params *params.Params
	// Mark overrides the sender marking policy when non-nil.
	Mark *omx.MarkPolicy
	// Fault installs static network fault injection (uniform per-frame
	// drop/duplicate/delay probabilities).
	Fault *fabric.Fault
	// Scenario installs a time-varying fault plan — link flaps and
	// Gilbert–Elliott bursty loss — evaluated by a chaos.Engine composed
	// onto the fabric's fault hook. Scenario and Fault compose: the
	// scenario decides first, the static probabilities still apply to
	// frames it lets through.
	Scenario *chaos.Scenario
	// Trace installs deterministic telemetry: per-node event timelines
	// and virtual-time-sampled metric series recorded into the given
	// recorder (see internal/trace). Each New claims the recorder's next
	// run index; a recorder must only be shared by clusters built and run
	// strictly sequentially. Nil (the default) records nothing and leaves
	// every report bit-identical to pre-trace builds.
	Trace *trace.Recorder
}

// Paper returns the paper's evaluation platform: two 8-core nodes, default
// 75 us timeout coalescing, round-robin IRQs, sleep enabled.
func Paper() Config {
	return Config{
		Nodes:         2,
		Strategy:      nic.StrategyTimeout,
		CoalesceDelay: 75 * sim.Microsecond,
		Seed:          1,
	}
}

// Validate reports whether the configuration can be built; New panics on
// exactly these conditions. Batch drivers (the sweep executor) call
// Validate up front so a malformed grid fails before any worker starts.
// Every rejection names the offending value and the accepted range in one
// consistent shape ("invalid <field> <value>: want <range>") so a sweep
// over thousands of points pinpoints the bad axis value immediately.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: invalid node count %d: want >= 1", c.Nodes)
	}
	if c.Nodes > MaxNodes {
		return fmt.Errorf("cluster: invalid node count %d: want <= %d", c.Nodes, MaxNodes)
	}
	if c.CoalesceDelay < 0 {
		return fmt.Errorf("cluster: invalid coalescing delay %dns: want >= 0", c.CoalesceDelay)
	}
	if c.Queues < 0 {
		return fmt.Errorf("cluster: invalid queue count %d: want >= 0 (0 means 1)", c.Queues)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("cluster: invalid parallelism %d: want >= 0 (0 means serial)", c.Parallelism)
	}
	if !c.Strategy.Known() {
		return fmt.Errorf("cluster: invalid strategy %d: want one of %s", int(c.Strategy), nic.KnownStrategies())
	}
	if c.Feedback.TargetIntrPerSec < 0 {
		return fmt.Errorf("cluster: invalid feedback interrupt-rate target %g/s: want >= 0", c.Feedback.TargetIntrPerSec)
	}
	if c.Feedback.MaxLatency < 0 {
		return fmt.Errorf("cluster: invalid feedback latency budget %dns: want >= 0", c.Feedback.MaxLatency)
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.IRQPolicy < host.IRQRoundRobin || c.IRQPolicy > host.IRQPerQueue {
		return fmt.Errorf("cluster: invalid IRQ policy %d: want [%d,%d]", int(c.IRQPolicy), int(host.IRQRoundRobin), int(host.IRQPerQueue))
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// stackRNGKey derives the per-node stack RNG namespace. Nodes 0..57 keep
// the historical 0xC0+i keys (existing seeds reproduce bit for bit); from
// node 58 on, 0xC0+i would collide with the switch's 0xFA key and correlate
// that stack's jitter with the fabric's, so large clusters jump to a
// disjoint namespace.
func stackRNGKey(i int) uint64 {
	k := uint64(0xC0 + i)
	if k >= 0xFA {
		return 0x1000 + uint64(i)
	}
	return k
}

// Cluster is a wired testbed.
type Cluster struct {
	Cfg Config
	// Eng is the shard-0 engine — the only engine when Parallelism
	// resolves to 1, which is how all pre-PDES code paths use it. Code
	// that may face a sharded cluster uses EngineFor/ScheduleOn and the
	// cluster-level Run/RunUntil instead.
	Eng *sim.Engine
	// Engines holds one engine per shard; Engines[0] == Eng. Its length is
	// the resolved parallelism (see Parallelism).
	Engines []*sim.Engine
	P       *params.Params
	Switch  *fabric.Switch
	Hosts   []*host.Host
	NICs    []*nic.NIC
	Stacks  []*omx.Stack
	RNG     *sim.RNG
	// Chaos is the scenario evaluation engine when Config.Scenario is
	// set (nil otherwise); its counters report what the scenario did.
	Chaos *chaos.Engine

	group   *sim.Group
	shardOf []int // node index -> shard index
	// flapEdges counts scenario flap-edge marker events fired per node.
	// Each slot is only written from the owning shard's engine.
	flapEdges []uint64
	// traceNodes holds one telemetry handle per node when Config.Trace is
	// set (nil otherwise). Each handle is only written from the owning
	// shard's engine — the same ownership discipline as flapEdges.
	traceNodes []*trace.Node
}

// resolvePar maps the configured Parallelism to the effective shard count:
// clamped to the node count, and forced to 1 when the fabric has no
// lookahead (a link with zero propagation and switch latency). The
// fallback is silent by design — "run this config at -par N" is always
// safe, never wrong, and at worst serial.
func resolvePar(cfg Config, lookahead sim.Time) int {
	par := cfg.Parallelism
	if par < 1 {
		par = 1
	}
	if par > cfg.Nodes {
		par = cfg.Nodes
	}
	if lookahead <= 0 {
		par = 1
	}
	return par
}

// New builds a cluster from cfg.
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := cfg.Params
	if p == nil {
		p = params.Default()
	}
	if cfg.SleepDisabled {
		p = p.Clone()
		p.Host.SleepEnabled = false
	}
	eng := sim.NewEngine()
	rng := sim.NewRNG(cfg.Seed)
	sw := fabric.NewSwitch(eng, p.Link, rng.Derive(0xFA))
	sw.SetTopology(cfg.Topology)
	// Compose the scenario hook onto the static fault plan. The caller's
	// Fault is copied, never mutated; with no scenario the original
	// pointer is installed untouched, keeping pre-existing configurations
	// bit-identical.
	fault := cfg.Fault
	var chaosEng *chaos.Engine
	if cfg.Scenario != nil {
		ce, err := chaos.New(*cfg.Scenario, cfg.Nodes)
		if err != nil {
			panic(err) // Validate caught everything reachable here
		}
		chaosEng = ce
		fl := fabric.Fault{}
		if cfg.Fault != nil {
			fl = *cfg.Fault
		}
		fl.Hook = ce
		fault = &fl
	}
	if fault != nil {
		sw.SetFault(fault)
	}

	par := resolvePar(cfg, sw.Lookahead())
	engs := make([]*sim.Engine, par)
	engs[0] = eng
	for i := 1; i < par; i++ {
		engs[i] = sim.NewEngine()
	}

	c := &Cluster{Cfg: cfg, Eng: eng, Engines: engs, P: p, Switch: sw, RNG: rng}
	c.shardOf = make([]int, cfg.Nodes)
	for i := range c.shardOf {
		// Contiguous balanced shards: node i -> shard i*par/Nodes.
		c.shardOf[i] = i * par / cfg.Nodes
	}
	if par > 1 {
		sw.SetShardCount(par)
		c.group = sim.NewGroup(engs, sw.Lookahead(), sw.FlushShards)
	}

	// One frame pool spans the cluster: frames allocated by a sender are
	// recycled when the receiving node releases them, so cross-node traffic
	// reuses a small working set instead of allocating per packet. Under
	// sharding the sender and releaser may be on different goroutines, so
	// the free list goes behind its mutex.
	pool := wire.NewPool()
	if par > 1 {
		pool.Share()
	}
	for i := 0; i < cfg.Nodes; i++ {
		neng := engs[c.shardOf[i]]
		h := host.New(neng, i, p.Host)
		h.SetIRQPolicy(cfg.IRQPolicy)
		n := nic.New(neng, p, h, sw, wire.NodeMAC(i), nic.Config{
			Strategy: cfg.Strategy,
			Delay:    cfg.CoalesceDelay,
			Queues:   cfg.Queues,
			Feedback: cfg.Feedback,
		})
		if par > 1 {
			sw.BindPort(wire.NodeMAC(i), c.shardOf[i], neng)
		}
		s := omx.NewStack(neng, p, h, n, rng.Derive(stackRNGKey(i)))
		s.SetFramePool(pool)
		if cfg.Mark != nil {
			s.Mark = *cfg.Mark
		}
		c.Hosts = append(c.Hosts, h)
		c.NICs = append(c.NICs, n)
		c.Stacks = append(c.Stacks, s)
	}
	if cfg.Trace != nil {
		c.traceNodes = cfg.Trace.Start(cfg.Nodes)
		every := cfg.Trace.SampleEvery()
		for i := 0; i < cfg.Nodes; i++ {
			c.NICs[i].SetTrace(c.traceNodes[i])
			c.Stacks[i].SetTrace(c.traceNodes[i])
			// The node's egress port is bound to the node's shard, so its
			// drop events share the handle's single-writer shard.
			sw.BindTrace(wire.NodeMAC(i), c.traceNodes[i])
			if every > 0 {
				c.installSampler(i, every)
			}
		}
	}
	if chaosEng != nil {
		c.Chaos = chaosEng
		// Mark each flap edge with an event on the owning node's shard
		// engine: a trace of the run shows when the scenario acted, and
		// an otherwise idle shard still advances its clock across the
		// edge.
		c.flapEdges = make([]uint64, cfg.Nodes)
		for node := 0; node < cfg.Nodes; node++ {
			n := node
			for _, at := range cfg.Scenario.Edges(node) {
				c.ScheduleOn(n, at, func() {
					c.flapEdges[n]++
					c.traceNode(n).Event(c.EngineFor(n).Now(), trace.EvFlapEdge, int64(c.flapEdges[n]))
				})
			}
		}
	}
	return c
}

// traceNode returns node n's telemetry handle (nil when tracing is off;
// every trace.Node method is a nil-receiver no-op).
func (c *Cluster) traceNode(n int) *trace.Node {
	if c.traceNodes == nil {
		return nil
	}
	return c.traceNodes[n]
}

// installSampler plants node's metric sampler: a self-re-arming tick on
// the node's own shard engine, so every read below touches only state the
// tick's shard owns. The tick stops re-arming after one fully quiet
// interval (no packet or interrupt activity on the node), so a cluster
// that would otherwise drain still drains and the liveness watchdog keeps
// seeing real deadlocks; window-driven harnesses (RunUntil) simply leave
// the final pending tick unexecuted.
func (c *Cluster) installSampler(node int, every sim.Time) {
	eng := c.EngineFor(node)
	// ^uint64(0) cannot equal a real activity count, so the first tick
	// always re-arms and an idle node still contributes one sample.
	last := ^uint64(0)
	var tick func()
	tick = func() {
		now := eng.Now()
		c.sampleNode(now, node)
		act := c.nodeActivity(node)
		if act == last {
			return
		}
		last = act
		eng.Schedule(now+every, tick)
	}
	eng.Schedule(every, tick)
}

// nodeActivity fingerprints a node's traffic counters; an unchanged value
// across a whole sampling interval means the node has gone quiet.
func (c *Cluster) nodeActivity(node int) uint64 {
	n, s := c.NICs[node], c.Stacks[node]
	return n.Stats.PacketsReceived + n.Stats.PacketsSent + n.Stats.Interrupts +
		s.Stats.PacketsIn + s.Stats.PacketsOut
}

// sampleNode records one metric sample for node at virtual time at. All
// reads are confined to the node's own NIC, stack, and egress port — state
// owned by the sampler's shard — and are read-only, so sampling never
// changes what the simulation reports.
func (c *Cluster) sampleNode(at sim.Time, node int) {
	n, s := c.NICs[node], c.Stacks[node]
	smp := trace.Sample{
		At:              at,
		Interrupts:      n.Stats.Interrupts,
		CoalesceDelayNS: int64(n.CurrentDelay()),
		PacketsIn:       s.Stats.PacketsIn,
		PacketsOut:      s.Stats.PacketsOut,
		RingDrops:       n.Stats.RingDrops,
		QueueFrames:     c.Switch.QueueLen(n.MAC()),
		PortDrops:       c.Switch.PortStats(n.MAC()).Drops,
	}
	c.addProto(&smp.Proto, node)
	c.traceNodes[node].Sample(smp)
}

// Proto sums the protocol counters over every node. Call it at a
// quiescent point (after Run or between RunUntil windows), like every
// cross-shard counter read.
func (c *Cluster) Proto() trace.Proto {
	var t trace.Proto
	for node := range c.Stacks {
		c.addProto(&t, node)
	}
	return t
}

// addProto adds node's protocol counters to t. It reads only the node's
// own NIC and stack, so the node's sampler may call it mid-run from the
// node's shard.
func (c *Cluster) addProto(t *trace.Proto, node int) {
	s, n := &c.Stacks[node].Stats, &c.NICs[node].Stats
	t.Retransmits += s.Retransmits
	t.Backoffs += s.Backoffs
	t.GiveUps += s.GiveUps
	t.PullRetries += s.PullBlockRetries
	t.FeedbackSteps += n.FeedbackSteps
	t.FeedbackClamps += n.FeedbackClamps
}

// FlapEdges returns how many scenario flap-edge markers have fired so
// far across all nodes. Call it at a quiescent point (after Run or
// between RunUntil windows), like every cross-shard counter read.
func (c *Cluster) FlapEdges() uint64 {
	var t uint64
	for _, n := range c.flapEdges {
		t += n
	}
	return t
}

// Parallelism returns the resolved shard count (>= 1; see Config).
func (c *Cluster) Parallelism() int { return len(c.Engines) }

// EngineFor returns the engine that owns node's events. Model code bound
// to a node must schedule there; cluster-wide control belongs on Run /
// RunUntil instead.
func (c *Cluster) EngineFor(node int) *sim.Engine { return c.Engines[c.shardOf[node]] }

// ScheduleOn schedules fn at virtual time at on node's shard engine — the
// harness-facing way to plant per-node workload drivers that is correct at
// any parallelism.
func (c *Cluster) ScheduleOn(node int, at sim.Time, fn func()) *sim.Event {
	return c.EngineFor(node).Schedule(at, fn)
}

// Run executes the simulation to completion: the conservative synchronizer
// when sharded, the engine's own loop otherwise.
func (c *Cluster) Run() {
	if c.group != nil {
		c.group.Run()
		return
	}
	c.Eng.Run()
}

// RunUntil executes all events with timestamps <= t and advances every
// shard's clock to t.
func (c *Cluster) RunUntil(t sim.Time) {
	if c.group != nil {
		c.group.RunUntil(t)
		return
	}
	c.Eng.RunUntil(t)
}

// Now returns the cluster-wide virtual time: the maximum over shard clocks,
// which equals the serial engine's clock at every quiescent point (idle
// shards' clocks park at their own last event).
func (c *Cluster) Now() sim.Time {
	now := c.Eng.Now()
	for _, e := range c.Engines[1:] {
		if t := e.Now(); t > now {
			now = t
		}
	}
	return now
}

// OpenEndpoints opens ranksPerNode endpoints on every node, pinning rank r
// to node r/ranksPerNode, core (r mod ranksPerNode) mod cores, endpoint id
// r mod ranksPerNode — the paper's "8 processes per node (one per core)".
func (c *Cluster) OpenEndpoints(ranksPerNode int) []*omx.Endpoint {
	nodes := make([]int, c.Cfg.Nodes)
	for i := range nodes {
		nodes[i] = i
	}
	return c.OpenEndpointsOn(nodes, ranksPerNode)
}

// OpenEndpointsOn opens ranksPerNode endpoints on each listed node, in
// list order, with the same id/core placement as OpenEndpoints. It exists
// for N-node scenarios where the MPI job spans a subset of the cluster
// (e.g. a ping-pong pair on nodes 0-1 while nodes 2..N carry background
// traffic on separately opened endpoints).
func (c *Cluster) OpenEndpointsOn(nodes []int, ranksPerNode int) []*omx.Endpoint {
	if ranksPerNode <= 0 {
		panic("cluster: ranksPerNode must be positive")
	}
	var eps []*omx.Endpoint
	for _, node := range nodes {
		if node < 0 || node >= c.Cfg.Nodes {
			panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", node, c.Cfg.Nodes))
		}
		h := c.Hosts[node]
		for i := 0; i < ranksPerNode; i++ {
			core := h.Cores[i%len(h.Cores)]
			eps = append(eps, c.Stacks[node].Open(uint8(i), core))
		}
	}
	return eps
}

// Addr returns the fabric address of endpoint ep on a node (world
// construction helper for >2-host scenarios).
func (c *Cluster) Addr(node int, ep uint8) omx.Addr {
	return omx.Addr{MAC: c.NICs[node].MAC(), EP: ep}
}

// PortStats returns the switch's egress-port counters for a node
// (occupancy, drops, queueing latency).
func (c *Cluster) PortStats(node int) fabric.PortStats {
	return c.Switch.PortStats(c.NICs[node].MAC())
}

// Interrupts sums interrupts raised across all NICs ("on both sides", as
// Table II counts them).
func (c *Cluster) Interrupts() uint64 {
	var total uint64
	for _, n := range c.NICs {
		total += n.Stats.Interrupts
	}
	return total
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster(%d nodes, %v, irq=%v)", c.Cfg.Nodes, c.NICs[0].Strategy(), c.Hosts[0].IRQPolicy())
}
