// Package sweep turns the one-shot simulator into a parameter-sweep
// platform: it expands cartesian grids over the paper's tuning axes
// (coalescing strategy, coalescing delay, message size, IRQ routing, queue
// count, seed) into independent jobs, runs them on a bounded worker pool —
// every simulation is deterministic and self-contained, so the sweep is
// embarrassingly parallel — and collects machine-readable results.
//
// Result ordering is deterministic: results come back in grid-expansion
// order regardless of worker count or completion order, so equal grids and
// seeds produce byte-identical JSON whether run serially or on all cores.
package sweep

import (
	"math"

	"openmxsim/internal/chaos"
	"openmxsim/internal/cluster"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// Grid describes a cartesian parameter space. Empty axes default to the
// paper platform's value for that axis, so the zero Grid expands to the
// single default point (timeout coalescing at 75 us, 128 B messages,
// round-robin IRQs, one queue, seed 1).
type Grid struct {
	// Strategies is the NIC coalescing strategy axis.
	Strategies []nic.Strategy
	// Delays is the coalescing-delay axis. StrategyDisabled ignores it but
	// is still expanded literally, so delay columns stay rectangular; Run
	// simulates a Disabled point once and reports it at every delay.
	Delays []sim.Time
	// Sizes is the message-size axis in bytes.
	Sizes []int
	// IRQ is the interrupt-routing axis.
	IRQ []host.IRQPolicy
	// Queues is the NIC receive-queue-count axis (multiqueue extension).
	Queues []int
	// Seeds is the simulation-seed axis.
	Seeds []uint64
	// SleepDisabled optionally sweeps the C1E idle-sleep switch
	// (false = sleep possible, the platform default).
	SleepDisabled []bool
	// Nodes is the cluster-size axis (default 2, the paper's testbed).
	// The ping-pong still runs between nodes 0 and 1; extra nodes carry
	// background load when the BgStreams axis is non-zero.
	Nodes []int
	// BgStreams is the background-load axis: the number of bulk senders
	// (one per extra node) congesting the ping-pong receiver's port. A
	// point's node count is raised to 2+streams when too small.
	BgStreams []int
	// DropProb is the loss-rate axis: a point with DropProb > 0 runs
	// under a Gilbert–Elliott loss scenario (chaos.Bursty) with this
	// stationary drop probability, seeded from the point's seed. 0 (the
	// default) installs no scenario at all, keeping clean points
	// bit-identical to pre-resilience sweeps.
	DropProb []float64
	// Burst is the mean loss-burst-length axis paired with DropProb:
	// values > 1 cluster the losses into bursts of that mean length;
	// <= 1 is uniform (Bernoulli) loss. Ignored at DropProb 0, where Run
	// simulates a point once and reports it at every burst length.
	Burst []float64

	// Iters is the ping-pong iteration count per point (default 30).
	Iters int
	// Rate additionally measures the unidirectional message rate at every
	// point (a second cluster per point; roughly doubles the cost). The
	// rate stream runs unloaded — the BgStreams axis applies to the
	// ping-pong latency measurement only — so rate columns isolate the
	// strategy/delay axes at any background level.
	Rate bool
	// RateWarmup and RateMeasure bound the rate measurement windows
	// (defaults 10 ms and 50 ms of virtual time, matching the public
	// MessageRate).
	RateWarmup, RateMeasure sim.Time
	// QFrames, when positive, bounds every point's switch egress queues to
	// this many frames with drop-tail (the output-queued topology,
	// omxsim's -qframes knob); 0 leaves them unbounded.
	QFrames int
	// Sample, when positive, records a virtual-time metric series at this
	// interval during every point's latency measurement and attaches it as
	// Result.Series. Part of the canonical grid: sampling changes the
	// result payload, so sampled and unsampled sweeps must not share a
	// cache key.
	Sample sim.Time
	// Trace, when non-nil, additionally records every point's discrete
	// event timeline into this recorder (one run per cluster, in
	// grid-expansion order). An execution knob, not part of the payload:
	// Run forces a single worker so run indices follow point order, and
	// simulates every point, even those that share a simulation, so each
	// has its own timeline. Callers writing trace files must bypass
	// result caches themselves.
	Trace *trace.Recorder `json:"-"`
}

// Point is one fully-specified configuration of the grid.
type Point struct {
	Index         int
	Strategy      nic.Strategy
	Delay         sim.Time
	Size          int
	IRQ           host.IRQPolicy
	Queues        int
	Seed          uint64
	SleepDisabled bool
	Nodes         int
	BgStreams     int
	DropProb      float64
	Burst         float64
}

// Config builds the cluster configuration for the point: the paper
// platform with this point's knobs applied.
func (p Point) Config() cluster.Config {
	cfg := cluster.Paper()
	cfg.Strategy = p.Strategy
	cfg.CoalesceDelay = p.Delay
	cfg.IRQPolicy = p.IRQ
	cfg.Queues = p.Queues
	cfg.Seed = p.Seed
	cfg.SleepDisabled = p.SleepDisabled
	if p.Nodes > 0 {
		cfg.Nodes = p.Nodes
	}
	if min := 2 + p.BgStreams; cfg.Nodes < min {
		cfg.Nodes = min // background senders need a node each
	}
	if p.DropProb > 0 {
		cfg.Scenario = &chaos.Scenario{
			Loss: chaos.Bursty(p.DropProb, p.Burst),
			Seed: p.Seed,
		}
	}
	return cfg
}

// result returns a Result holding the point's coordinates, with nodes as
// the effective cluster size (after the raise for background streams).
func (p Point) result(nodes int) Result {
	return Result{
		Index:         p.Index,
		Strategy:      p.Strategy.String(),
		DelayUS:       float64(p.Delay) / float64(sim.Microsecond),
		SizeBytes:     p.Size,
		IRQ:           p.IRQ.String(),
		Queues:        p.Queues,
		Seed:          p.Seed,
		SleepDisabled: p.SleepDisabled,
		Nodes:         nodes,
		BgStreams:     p.BgStreams,
		DropProb:      p.DropProb,
		Burst:         p.Burst,
	}
}

// normalized returns a copy of g with every empty axis replaced by its
// paper-platform default.
func (g Grid) normalized() Grid {
	def := cluster.Paper()
	if len(g.Strategies) == 0 {
		g.Strategies = []nic.Strategy{def.Strategy}
	}
	if len(g.Delays) == 0 {
		g.Delays = []sim.Time{def.CoalesceDelay}
	}
	if len(g.Sizes) == 0 {
		g.Sizes = []int{128}
	}
	if len(g.IRQ) == 0 {
		g.IRQ = []host.IRQPolicy{host.IRQRoundRobin}
	}
	if len(g.Queues) == 0 {
		g.Queues = []int{1}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{def.Seed}
	}
	if len(g.SleepDisabled) == 0 {
		g.SleepDisabled = []bool{false}
	}
	if len(g.Nodes) == 0 {
		g.Nodes = []int{def.Nodes}
	}
	if len(g.BgStreams) == 0 {
		g.BgStreams = []int{0}
	}
	if len(g.DropProb) == 0 {
		g.DropProb = []float64{0}
	}
	if len(g.Burst) == 0 {
		g.Burst = []float64{0}
	}
	if g.Iters <= 0 {
		g.Iters = 30
	}
	if g.RateWarmup <= 0 {
		g.RateWarmup = 10 * sim.Millisecond
	}
	if g.RateMeasure <= 0 {
		g.RateMeasure = 50 * sim.Millisecond
	}
	return g
}

// Canonical returns the grid in content-address form: every empty axis
// filled with its default — so equivalent spellings of the same sweep
// collide on one cache key — and the execution-only Trace recorder
// cleared.
func (g Grid) Canonical() Grid {
	g = g.normalized()
	g.Trace = nil
	return g
}

// Size returns the number of points the grid expands to, or math.MaxInt
// when that number does not fit in an int.
func (g Grid) Size() int {
	g = g.normalized()
	n := 1
	for _, axis := range [...]int{
		len(g.Strategies), len(g.Delays), len(g.Sizes), len(g.IRQ),
		len(g.Queues), len(g.Seeds), len(g.SleepDisabled), len(g.Nodes),
		len(g.BgStreams), len(g.DropProb), len(g.Burst),
	} {
		if n > math.MaxInt/axis {
			return math.MaxInt
		}
		n *= axis
	}
	return n
}

// Points expands the cartesian product in deterministic order: seed
// outermost, then strategy, delay, size, IRQ policy, queue count, sleep,
// node count, background streams, drop probability, burst length.
func (g Grid) Points() []Point {
	g = g.normalized()
	pts := make([]Point, 0, g.Size())
	for _, seed := range g.Seeds {
		for _, st := range g.Strategies {
			for _, d := range g.Delays {
				for _, size := range g.Sizes {
					for _, irq := range g.IRQ {
						for _, q := range g.Queues {
							for _, sl := range g.SleepDisabled {
								for _, nodes := range g.Nodes {
									for _, bg := range g.BgStreams {
										for _, dp := range g.DropProb {
											for _, bu := range g.Burst {
												pts = append(pts, Point{
													Index:         len(pts),
													Strategy:      st,
													Delay:         d,
													Size:          size,
													IRQ:           irq,
													Queues:        q,
													Seed:          seed,
													SleepDisabled: sl,
													Nodes:         nodes,
													BgStreams:     bg,
													DropProb:      dp,
													Burst:         bu,
												})
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}
