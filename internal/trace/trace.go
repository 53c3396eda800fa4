// Package trace is the simulator's deterministic observability layer:
// discrete event timelines and virtual-time-sampled metric series for a
// running cluster, recorded without perturbing the simulation.
//
// The recorder lives inside the lint.SimVisible boundary, so everything
// here obeys the determinism rules the reports rest on: no wall clock, no
// ambient randomness, no map iteration, no concurrency primitives.
// Par-safety comes from ownership instead of locks: all recording goes
// through per-node handles (Node), and every emit site for a node — its
// NIC, its Open-MX stack, its egress switch port, its chaos flap markers,
// its sampler — runs on the one shard engine that owns the node. Buffers
// are therefore single-writer by construction, and the exporters merge
// them only at quiescent points (after Run / between RunUntil windows) by
// the shard-layout-independent key (run, time, node, per-node sequence),
// which is why trace bytes are bit-identical at any cluster parallelism.
//
// Recording also never changes what the simulation reports: handles only
// read statistics and append to their own buffers, and the sampler events
// a recorder schedules preserve the relative order of all model events
// (engine sequence numbers shift uniformly; they only break ties between
// events whose relative order is unchanged). With a nil recorder every
// emit site is a nil-receiver no-op that allocates nothing.
package trace

import (
	"openmxsim/internal/sim"
)

// Kind classifies a discrete timeline event.
type Kind uint8

const (
	// EvIRQ is an interrupt actually raised to the host; Arg is the
	// cause (0 = coalescing timeout, 1 = marked packet, 2 = immediate /
	// coalescing disabled).
	EvIRQ Kind = iota
	// EvCoalesceWalk is an effective feedback-controller delay change;
	// Arg is the new delay in ns.
	EvCoalesceWalk
	// EvFeedbackClamp is a controller walk absorbed by the [min,max]
	// clamp; Arg is the (unchanged) delay in ns.
	EvFeedbackClamp
	// EvRingDrop is a frame dropped because the NIC receive ring was
	// full; Arg is the cumulative ring-drop count.
	EvRingDrop
	// EvPortDrop is a drop-tail loss at the node's egress switch port;
	// Arg is the cumulative port-drop count.
	EvPortDrop
	// EvFlapEdge is a chaos-scenario link-flap edge on the node's link;
	// Arg is the edge ordinal (1 = first edge, usually link-down).
	EvFlapEdge
	// EvGiveUp is the reliability layer abandoning an operation after
	// exhausting its retry budget (omx.ErrGiveUp); Arg is the cumulative
	// give-up count.
	EvGiveUp

	kindCount
)

// kindNames are the Chrome-trace event names, indexed by Kind.
var kindNames = [kindCount]string{
	"irq", "coalesce_walk", "feedback_clamp", "ring_drop",
	"port_drop", "flap_edge", "give_up",
}

// String returns the stable exported name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// irqCauseNames label EvIRQ's Arg (mirrors nic's interrupt causes).
var irqCauseNames = [3]string{"timeout", "marked", "immediate"}

// Event is one discrete occurrence on a node's timeline.
type Event struct {
	Run  int      `json:"run"`
	At   sim.Time `json:"t_ns"`
	Node int      `json:"node"`
	Kind Kind     `json:"-"`
	Name string   `json:"event"`
	Arg  int64    `json:"arg"`

	seq uint64 // per-(run,node) emission index, the merge tiebreaker
}

// Proto is the protocol counter block: how hard the reliability layer and
// the closed-loop coalescer worked. A Sample carries one node's; sweep
// results and harness outcomes carry the sum over a cluster's nodes
// (cluster.Cluster.Proto). Embedded in a row type, its fields are six
// JSON keys and CSV columns in place.
type Proto struct {
	Retransmits uint64 `json:"retransmits"`
	Backoffs    uint64 `json:"backoffs"`
	GiveUps     uint64 `json:"give_ups"`
	PullRetries uint64 `json:"pull_retries"`
	// FeedbackSteps counts the closed-loop coalescer's delay adjustments
	// (always 0 unless the NICs run StrategyFeedback).
	FeedbackSteps uint64 `json:"feedback_steps"`
	// FeedbackClamps counts controller walks absorbed by the [min,max]
	// delay clamp: the controller hit a wall and could not move.
	FeedbackClamps uint64 `json:"feedback_clamps"`
}

// Sample is one virtual-time sample of a node's gauges and counters.
// Counter fields are cumulative since the run started; CoalesceDelayNS
// and QueueFrames are instantaneous gauges.
type Sample struct {
	Run             int      `json:"run"`
	At              sim.Time `json:"t_ns"`
	Node            int      `json:"node"`
	Interrupts      uint64   `json:"interrupts"`
	CoalesceDelayNS int64    `json:"coalesce_delay_ns"`
	PacketsIn       uint64   `json:"packets_in"`
	PacketsOut      uint64   `json:"packets_out"`
	QueueFrames     int      `json:"queue_frames"`
	PortDrops       uint64   `json:"port_drops"`
	RingDrops       uint64   `json:"ring_drops"`
	Proto

	seq uint64 // shares the node's emission counter with events
}

// Config selects what a Recorder captures.
type Config struct {
	// SampleEvery is the virtual-time sampling interval; 0 disables the
	// metric series (the cluster then installs no sampler events at all).
	SampleEvery sim.Time
	// Events enables the discrete timeline (EvIRQ, drops, flap edges,
	// give-ups, controller walks).
	Events bool
}

// Recorder collects the telemetry of one or more sequential cluster runs.
// A Recorder is installed via cluster.Config.Trace; each cluster.New
// claims the next run index with Start. Handles write concurrently from
// their owning shards; Start and the exporters must only be called at
// quiescent points (no cluster running), which every harness guarantees
// by construction.
type Recorder struct {
	cfg  Config
	runs []runBuf
}

type runBuf struct {
	nodes []*Node
}

// Node is the per-node recording handle. The zero of the type is never
// used; a nil *Node is the disabled recorder, and every method is a
// nil-receiver no-op so hot paths carry exactly one pointer test.
type Node struct {
	run     int
	node    int
	ev      bool
	seq     uint64
	events  []Event
	samples []Sample
}

// New creates a recorder. A nil return is never needed: callers that
// don't trace simply leave cluster.Config.Trace nil.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg}
}

// SampleEvery returns the configured sampling interval (0 = no series).
func (r *Recorder) SampleEvery() sim.Time {
	if r == nil {
		return 0
	}
	return r.cfg.SampleEvery
}

// Start begins the recorder's next run and returns one handle per node.
// Runs are sequential: the previous run's cluster must be quiescent.
func (r *Recorder) Start(nodes int) []*Node {
	run := len(r.runs)
	hs := make([]*Node, nodes)
	for i := range hs {
		hs[i] = &Node{run: run, node: i, ev: r.cfg.Events}
	}
	r.runs = append(r.runs, runBuf{nodes: hs})
	return hs
}

// Runs returns how many runs the recorder has recorded.
func (r *Recorder) Runs() int {
	if r == nil {
		return 0
	}
	return len(r.runs)
}

// Event appends a discrete event to the node's timeline. Nil-receiver
// no-op; also a no-op when the recorder was configured without Events,
// so samplers can run without paying for a timeline nobody asked for.
func (n *Node) Event(at sim.Time, k Kind, arg int64) {
	if n == nil || !n.ev {
		return
	}
	n.events = append(n.events, Event{
		Run: n.run, At: at, Node: n.node, Kind: k, Name: k.String(),
		Arg: arg, seq: n.seq,
	})
	n.seq++
}

// Sample appends one metric sample to the node's series. s.Run, s.Node
// and the merge sequence are stamped here; callers fill the measurements.
func (n *Node) Sample(s Sample) {
	if n == nil {
		return
	}
	s.Run, s.Node, s.seq = n.run, n.node, n.seq
	n.seq++
	n.samples = append(n.samples, s)
}

// Events returns every recorded event merged across runs and nodes in
// the canonical deterministic order (run, time, node, emission index) —
// independent of shard layout, because each node's stream is recorded in
// its own virtual-time order regardless of which shard owns it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, run := range r.runs {
		out = append(out, mergeEvents(run.nodes)...)
	}
	return out
}

// RunSamples returns one run's merged sample series in canonical order
// (nil for an unknown run index).
func (r *Recorder) RunSamples(run int) []Sample {
	if r == nil || run < 0 || run >= len(r.runs) {
		return nil
	}
	return mergeSamples(r.runs[run].nodes)
}

// Samples returns every recorded sample in canonical order (see Events).
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	var out []Sample
	for _, run := range r.runs {
		out = append(out, mergeSamples(run.nodes)...)
	}
	return out
}

// mergeEvents k-way merges the per-node event streams of one run by
// (time, node, seq). Each per-node stream is already sorted by (time,
// seq): a node's events are emitted by its shard engine in nondecreasing
// virtual time with a monotonic per-node counter.
func mergeEvents(nodes []*Node) []Event {
	total := 0
	for _, n := range nodes {
		total += len(n.events)
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(nodes))
	for len(out) < total {
		best := -1
		for ni, n := range nodes {
			i := idx[ni]
			if i >= len(n.events) {
				continue
			}
			if best < 0 || eventLess(n.events[i], nodes[best].events[idx[best]]) {
				best = ni
			}
		}
		out = append(out, nodes[best].events[idx[best]])
		idx[best]++
	}
	return out
}

func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.seq < b.seq
}

// mergeSamples is mergeEvents for the metric series.
func mergeSamples(nodes []*Node) []Sample {
	total := 0
	for _, n := range nodes {
		total += len(n.samples)
	}
	out := make([]Sample, 0, total)
	idx := make([]int, len(nodes))
	for len(out) < total {
		best := -1
		for ni, n := range nodes {
			i := idx[ni]
			if i >= len(n.samples) {
				continue
			}
			if best < 0 || sampleLess(n.samples[i], nodes[best].samples[idx[best]]) {
				best = ni
			}
		}
		out = append(out, nodes[best].samples[idx[best]])
		idx[best]++
	}
	return out
}

func sampleLess(a, b Sample) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.seq < b.seq
}
