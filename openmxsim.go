// Package openmxsim reproduces the system and evaluation of "Finding a
// Tradeoff between Host Interrupt Load and MPI Latency over Ethernet"
// (Goglin & Furmento, IEEE Cluster 2009) as a deterministic discrete-event
// simulation: the Open-MX message-passing stack over generic Ethernet, a
// NIC model with the paper's marker-driven interrupt-coalescing firmwares,
// a host model with NAPI, C1E sleep and cache-bounce effects, a mini-MPI,
// and the NAS Parallel Benchmark workloads.
//
// The public API wires complete testbeds and runs the paper's experiments:
//
//	cfg := openmxsim.PaperPlatform()
//	cfg.Strategy = openmxsim.StrategyOpenMX
//	lat, _ := openmxsim.PingPong(cfg, []int{128}, 30)
//	fmt.Println(lat[128]) // one-way 128B latency in virtual ns
//
// All time is virtual (nanoseconds), so results are exact, reproducible,
// and immune to the host's GC or scheduling.
package openmxsim

import (
	"openmxsim/internal/cluster"
	"openmxsim/internal/exp"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/tune"
)

// Time is a virtual duration or timestamp in nanoseconds.
type Time = sim.Time

// Time unit constants.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Strategy selects the NIC interrupt-coalescing behaviour.
type Strategy = nic.Strategy

// The five coalescing strategies under study.
const (
	// StrategyDisabled interrupts per packet.
	StrategyDisabled = nic.StrategyDisabled
	// StrategyTimeout is classic delay-based coalescing (the default).
	StrategyTimeout = nic.StrategyTimeout
	// StrategyOpenMX is the paper's Algorithm 1 (marker-driven).
	StrategyOpenMX = nic.StrategyOpenMX
	// StrategyStream is the paper's Algorithm 2 (burst deferral).
	StrategyStream = nic.StrategyStream
	// StrategyAdaptive adapts the delay to traffic (Section VI).
	StrategyAdaptive = nic.StrategyAdaptive
	// StrategyFeedback is the closed-loop tuner extension: the firmware
	// walks its delay toward a goal (Config.Feedback) supplied by the
	// tuner — see Tune.
	StrategyFeedback = nic.StrategyFeedback
)

// ParseStrategy converts a strategy name ("disabled", "timeout", "openmx",
// "stream", "adaptive", "feedback") into a Strategy.
func ParseStrategy(name string) (Strategy, error) { return nic.ParseStrategy(name) }

// Config describes a simulated testbed; the zero value is not useful, start
// from PaperPlatform. Config.Parallelism shards the cluster across that
// many engines running conservatively in parallel (lookahead = the
// fabric's propagation plus switch latency); results are bit-identical at
// any value, so it is purely a wall-clock knob for large clusters.
type Config = cluster.Config

// Cluster is a wired testbed (hosts, NICs, switch, Open-MX stacks).
type Cluster = cluster.Cluster

// PaperPlatform returns the paper's evaluation platform: two 8-core nodes
// with Myri-10G-like NICs at MTU 1500, 75 us default coalescing,
// round-robin IRQs, C1E sleep enabled.
func PaperPlatform() Config { return cluster.Paper() }

// NewCluster builds a testbed from cfg. It panics when cfg fails
// Config.Validate.
func NewCluster(cfg Config) *Cluster { return cluster.New(cfg) }

// DefaultParams returns the calibrated model parameter set; assign a
// modified copy to Config.Params to explore the design space.
func DefaultParams() *params.Params { return params.Default() }

// Topology bounds the switch's egress queues for Config.Topology: the zero
// value leaves them unbounded, as on the paper's two-host link, and
// TopologyOutputQueued bounds them with drop-tail for N-node congestion
// scenarios. Every topology keeps per-port occupancy/drop/latency
// statistics.
type Topology = fabric.Topology

// PortStats are the switch's per-egress-port counters (see Cluster.PortStats).
type PortStats = fabric.PortStats

// Fabric topology kinds.
const (
	// TopologyDirect leaves every egress queue unbounded (no congestion
	// loss).
	TopologyDirect = fabric.TopologyDirect
	// TopologyOutputQueued bounds each egress queue, dropping at the tail.
	TopologyOutputQueued = fabric.TopologyOutputQueued
)

// NewWorld opens ranksPerNode endpoints per node on a fresh cluster and
// returns the MPI world spanning them.
func NewWorld(cfg Config, ranksPerNode int) (*Cluster, *mpi.World) {
	cl := cluster.New(cfg)
	eps := cl.OpenEndpoints(ranksPerNode)
	return cl, mpi.NewWorld(cl, eps)
}

// Rank is an MPI process; World is an MPI job. See internal/mpi for the
// full point-to-point and collective API.
type (
	Rank  = mpi.Rank
	World = mpi.World
	Comm  = mpi.Comm
)

// MarkPolicy controls which packets the sender flags latency-sensitive.
type MarkPolicy = omx.MarkPolicy

// DefaultMarkPolicy marks the paper's Section III-B set.
func DefaultMarkPolicy() MarkPolicy { return omx.DefaultMarkPolicy() }

// PingPong measures mean one-way transfer times (ns) between two ranks on
// different nodes for each message size; iters <= 0 means 10.
func PingPong(cfg Config, sizes []int, iters int) (map[int]Time, error) {
	if iters <= 0 {
		iters = 10
	}
	out, err := sweep.RunPingPong(cfg, sizes, iters, Background{})
	return out.Latency, err
}

// MessageRate measures the sustained receiver-side message rate (msg/s)
// for a unidirectional stream of size-byte messages from node 0 to node 1;
// warmup <= 0 means 10 ms and measure <= 0 means 50 ms. cfg.Nodes below 2
// is raised to 2. Like NewCluster on an invalid config, it panics when
// size is negative.
func MessageRate(cfg Config, size int, warmup, measure Time) float64 {
	if warmup <= 0 {
		warmup = 10 * Millisecond
	}
	if measure <= 0 {
		measure = 50 * Millisecond
	}
	return sweep.RunStream(sweep.StreamSpec{Cluster: cfg, Size: size, Warmup: warmup, Measure: measure}).Rate
}

// Background describes bulk streams congesting the ping-pong receiver's
// switch port (one sender per extra node).
type Background = sweep.Background

// PingPongLoaded is PingPong under background congestion: bg.Streams bulk
// senders on extra nodes share node 1's port with the latency-sensitive
// ping-pong. With bg.Streams == 0 it is exactly PingPong.
func PingPongLoaded(cfg Config, sizes []int, iters int, bg Background) (map[int]Time, error) {
	out, err := sweep.RunPingPong(cfg, sizes, iters, bg)
	return out.Latency, err
}

// IncastSpec describes an N-to-1 fan-in measurement; IncastResult is the
// receiver-side outcome, including switch-port congestion counters.
type (
	IncastSpec   = sweep.IncastSpec
	IncastResult = sweep.IncastResult
)

// Incast runs an N-to-1 fan-in measurement on a fresh cluster.
func Incast(spec IncastSpec) IncastResult { return sweep.RunIncast(spec) }

// NASResult is one NAS benchmark execution.
type NASResult = nas.Result

// RunNAS executes a NAS Parallel Benchmark (is, ft, cg, mg, ep, lu, bt,
// sp) of the given class ('S', 'W', 'A', 'B', 'C') with the given rank
// count on a fresh cluster.
func RunNAS(cfg Config, name string, class byte, ranks int) (*NASResult, error) {
	wl, err := nas.Get(name, class, ranks)
	if err != nil {
		return nil, err
	}
	return nas.Run(cfg, wl)
}

// NASBenchmarks lists the available benchmark names.
func NASBenchmarks() []string { return nas.Names() }

// Sweep types: a SweepGrid is a cartesian parameter space over strategy,
// delay, size, IRQ policy, queue count and seed; SweepResults is the
// ordered, JSON/CSV-serializable outcome.
type (
	SweepGrid    = sweep.Grid
	SweepPoint   = sweep.Point
	SweepResult  = sweep.Result
	SweepResults = sweep.Results
)

// Sweep expands the grid and runs every point in parallel on `workers`
// goroutines (0 = GOMAXPROCS), each on its own simulated cluster. Results
// come back in deterministic grid order: equal grids and seeds yield
// byte-identical serialized output regardless of worker count.
func Sweep(grid SweepGrid, workers int) (SweepResults, error) {
	return sweep.Run(grid, workers)
}

// Tuner types: a TuneSpec describes one tuning problem (workload, search
// space, budget, latency weight); a TuneOutcome is the search result; a
// Tradeoff is the Pareto analysis of a result set; a TradeoffPoint one
// tagged point; a FeedbackGoal the closed-loop runtime target for
// StrategyFeedback (Config.Feedback).
type (
	TuneSpec      = tune.Spec
	TuneOutcome   = tune.Outcome
	Tradeoff      = tune.Tradeoff
	TradeoffPoint = tune.Point
	FeedbackGoal  = nic.FeedbackGoal
)

// Frontier analyzes a sweep outcome: the Pareto-optimal set over
// (interrupt load, latency) with dominated-point tagging, knee selection
// (max distance to the frontier chord), and a Score(latencyWeight)
// scalarization to dial latency- vs load-priority.
func Frontier(rs SweepResults) *Tradeoff { return tune.Frontier(rs) }

// Tune finds the tradeoff for a workload adaptively: coarse grid,
// successive halving, local refinement around the incumbent knee — the
// exhaustive frontier's knee in a fraction of the evaluations. The same
// Spec converges to the same point at any worker count.
func Tune(spec TuneSpec) (*TuneOutcome, error) { return tune.Search(spec) }

// Experiment options and reports (the paper's tables and figures).
type (
	Options = exp.Options
	Report  = exp.Report
)

// Experiments lists the available experiment ids in the paper's order.
func Experiments() []string { return exp.IDs() }

// DescribeExperiment returns the one-line description of an experiment.
func DescribeExperiment(id string) string { return exp.Describe(id) }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opts Options) (*Report, error) {
	r, err := exp.Get(id)
	if err != nil {
		return nil, err
	}
	return r(opts), nil
}
