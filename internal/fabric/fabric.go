// Package fabric models the Ethernet network between hosts: full-duplex
// links into a store-and-forward, output-queued switch with per-egress-port
// serialization and a FIFO queue, propagation delay, per-frame timing
// jitter, and optional fault injection (drop, duplicate, delay-induced
// reordering).
//
// Ports are indexed by node: the port of node i sits in slot i of the
// switch and is attached under wire.NodeMAC(i), the only MAC Attach
// accepts, so a send finds both of its ports without hashing an address.
//
// A frame serializes onto its sender's link, crosses the switch, and is
// offered to the destination port's egress queue when it reaches the
// switch. The port admits it on its own shard: the frame starts
// transmitting when the port's previous frame has left (the port keeps a
// busy-until horizon), its arrival at the receiver is scheduled then, and
// it counts as queued until its start. Topology only bounds the queue:
//
//   - TopologyDirect (the zero value, and the paper's two-host setup): no
//     bound. Frames are never lost to congestion; a burst into one port
//     simply waits in its queue.
//   - TopologyOutputQueued: at most EgressQueueFrames frames wait per
//     port, and arrivals beyond that are dropped (drop-tail). This is the
//     model for N-node shared-fabric scenarios (incast fan-in, background
//     bulk streams congesting a port) where the interrupt-load/latency
//     tradeoff meets switch buffering.
//
// Both keep per-port occupancy, drop and queueing-latency statistics.
//
// The fabric is where large-message bandwidth and the inter-packet gaps seen
// by the receiving NIC are decided, so it directly shapes the pull-protocol
// results (Table II) and the Stream-coalescing deferral window (Table III).
//
// # Sharded execution
//
// The switch can run under the conservative parallel engine (see
// internal/sim.Group): every port is bound to a shard engine
// (BindPort), all port state — busy horizons, admitted start times,
// statistics, RNG stream — is touched only by events running on that
// port's shard, and a send whose destination port lives on another shard
// is parked in a per-source-shard outbox instead of being scheduled
// directly. The synchronizer drains the outboxes between windows
// (FlushShards) while every shard goroutine is parked.
//
// The switch supplies the two properties the synchronizer's determinism
// argument needs:
//
//   - Lookahead: a frame sent at time u reaches the destination port's
//     egress queue no earlier than u + PropagationDelay + SwitchLatency
//     (plus ingress serialization), so Lookahead() is a true lower bound on
//     cross-shard latency.
//   - Order-independent tie-breaking: every egress-enqueue event carries a
//     pri key derived from the source port identity and a per-port message
//     ordinal — a pure function of the model, stamped identically by the
//     serial (Parallelism 1) and sharded runs — so the engine's (at, pri,
//     seq) total order places cross-shard arrivals identically no matter
//     which engine's seq counter stamped them.
//
// To keep "same model, any Parallelism" bit-identical, every draw comes from
// a per-port RNG stream and every admission event carries its pri stamp
// even when running on a single engine.
//
// # Frame ownership and reference counting
//
// The fabric follows the wire.Frame rules (see the internal/wire package
// comment): Send takes over the caller's reference and the frame travels
// with exactly that one reference until it is handed to the destination
// Receiver, which inherits it.  Every path that ends a frame's journey
// inside the fabric — a fault-injected drop, a drop-tail rejection at a
// full egress queue — calls Release exactly once. Duplicate delivery takes
// one extra reference with Ref, so each of the two deliveries hands an
// independently owned reference to the receiver. The fabric never touches a
// frame after delivering or releasing it. Its admission and delivery
// events carry the frame itself as their argument, which the engine clears
// when it recycles them, so no fabric state holds a frame it has handed on.
package fabric

import (
	"fmt"
	"math"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// Receiver consumes frames delivered by the fabric (implemented by the NIC).
type Receiver interface {
	// ReceiveFrame is invoked at the virtual time the last bit of the frame
	// arrives at the port.
	ReceiveFrame(f *wire.Frame)
}

// TopologyKind selects whether the egress queues are bounded.
type TopologyKind int

const (
	// TopologyDirect leaves every egress queue unbounded: no congestion
	// loss.
	TopologyDirect TopologyKind = iota
	// TopologyOutputQueued bounds each egress port's FIFO queue to
	// Topology.EgressQueueFrames frames; arrivals beyond that are dropped
	// (drop-tail).
	TopologyOutputQueued
)

var topologyNames = [...]string{"direct", "output-queued"}

func (k TopologyKind) String() string {
	if k >= 0 && int(k) < len(topologyNames) {
		return topologyNames[k]
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// DefaultEgressQueueFrames is the per-port buffer used when a Topology
// bounds the queues without an explicit bound. 128 full frames per port is
// in the range of the shallow shared-buffer switches of the paper's era.
const DefaultEgressQueueFrames = 128

// Topology configures the egress queues. The zero value leaves them
// unbounded.
type Topology struct {
	// Kind selects unbounded (direct) or bounded (output-queued) queues.
	Kind TopologyKind
	// EgressQueueFrames bounds each egress port's queue in frames under
	// TopologyOutputQueued; <= 0 selects DefaultEgressQueueFrames. Ignored
	// by TopologyDirect.
	EgressQueueFrames int
}

// Validate reports whether the topology is buildable.
func (t Topology) Validate() error {
	if t.Kind != TopologyDirect && t.Kind != TopologyOutputQueued {
		return fmt.Errorf("fabric: invalid topology kind %d: want TopologyDirect (%d) or TopologyOutputQueued (%d)", int(t.Kind), int(TopologyDirect), int(TopologyOutputQueued))
	}
	if t.EgressQueueFrames < 0 {
		return fmt.Errorf("fabric: invalid egress queue bound %d frames: want >= 0", t.EgressQueueFrames)
	}
	return nil
}

// queueCap returns the effective per-port queue bound.
func (t Topology) queueCap() int {
	switch {
	case t.Kind == TopologyDirect:
		return math.MaxInt
	case t.EgressQueueFrames > 0:
		return t.EgressQueueFrames
	}
	return DefaultEgressQueueFrames
}

// Fault describes an injected network imperfection, applied per frame.
type Fault struct {
	// DropProb is the probability a frame is silently lost.
	DropProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// DelayProb is the probability a frame is held back by DelayTime,
	// which reorders it behind later traffic.
	DelayProb float64
	// DelayTime is the hold-back applied to delayed frames.
	DelayTime sim.Time
	// Filter, when non-nil, restricts the static fault probabilities
	// above to matching frames (it does not gate Hook, which carries its
	// own filtering).
	//
	// Thread-safety contract under Parallelism > 1: the filter runs on
	// the shard-owned send paths, so within a barrier window it is
	// invoked concurrently from every shard goroutine. It must therefore
	// be safe for concurrent use: reading the frame and immutable
	// configuration is always fine; mutating shared state (counters,
	// maps, slices) requires the filter's own synchronization. And
	// because shard layout changes the interleaving of those calls, a
	// filter whose *decisions* depend on mutable shared state forfeits
	// the bit-identical-at-any-par guarantee — keep decision state keyed
	// per source node (see internal/chaos) or make the filter pure.
	Filter func(*wire.Frame) bool
	// Hook, when non-nil, is consulted per frame before the static
	// probabilities and may drop it — the extension point for
	// time-varying fault scenarios (link flaps, bursty loss; see
	// internal/chaos). The same concurrency rules as Filter apply: Drop
	// runs on the source port's shard, so implementations must key
	// mutable state (Markov chains, RNG streams) by source node.
	Hook Hook
}

// Hook drops frames by time-varying rules. src and dst are the node
// indices of the frame's source and destination ports (wire.MAC.NodeIndex)
// and now is the source shard's current virtual time. A dropped frame is
// lost before it occupies the sender's wire (a down link transmits
// nothing).
type Hook interface {
	Drop(src, dst int, now sim.Time) bool
}

func (fl *Fault) matches(f *wire.Frame) bool {
	return fl != nil && (fl.Filter == nil || fl.Filter(f))
}

// hook returns the installed scenario hook, if any.
func (s *Switch) hook() Hook {
	if s.fault == nil {
		return nil
	}
	return s.fault.Hook
}

// PortStats are the per-egress-port counters of the switch.
type PortStats struct {
	// FramesDelivered and BytesDelivered count frames handed to the port's
	// receiver.
	FramesDelivered uint64 `json:"frames_delivered"`
	BytesDelivered  uint64 `json:"bytes_delivered"`
	// Enqueued counts frames admitted to the egress queue.
	Enqueued uint64 `json:"enqueued"`
	// Drops counts frames rejected by the full egress queue (drop-tail;
	// always 0 on an unbounded queue).
	Drops uint64 `json:"drops"`
	// MaxQueueFrames is the queue-occupancy high-water mark, in frames.
	MaxQueueFrames int `json:"max_queue_frames"`
	// QueueWait accumulates the time frames wait in the egress queue
	// before their transmission starts, charged when the port admits them;
	// QueueWait / Enqueued is the mean per-frame queueing latency.
	QueueWait sim.Time `json:"queue_wait_ns"`
}

// Switch is the central store-and-forward element. Ports are indexed by
// node (wire.MAC.NodeIndex of the MAC they were attached under, nil where
// no port is attached); each port has an independent ingress
// (host->switch) and egress (switch->host) serialization resource, which
// is how both directions of a full-duplex link and cross-traffic
// contention are modelled.
type Switch struct {
	eng  *sim.Engine
	link params.Link
	// rng only derives the ports' streams; the switch draws nothing itself.
	rng   *sim.RNG
	qcap  int
	ports []*port
	fault *Fault

	// outbox parks cross-shard sends, one slice per source shard so shard
	// goroutines never contend; FlushShards drains them between windows.
	// Nil until SetShardCount.
	outbox [][]xmsg
}

// xmsg is one cross-shard egress-enqueue message: frame f is offered to
// port p's egress queue at virtual time at, ordered by pri.
type xmsg struct {
	p   *port
	f   *wire.Frame
	at  sim.Time
	pri uint64
}

type port struct {
	mac  wire.MAC
	rx   Receiver
	node int // wire.MAC.NodeIndex of mac, passed to scenario hooks

	// Shard binding: all events touching this port's state run on eng
	// (shard 0 / the switch's engine until BindPort says otherwise). rng is
	// the port's private stream for its draws and priBase|++msgSeq the
	// order-independent tie-break key for the port's sends — each owned by
	// the port's shard. enqueueFn and deliverFn are enqueueNow and
	// deliverNow bound to the port, so its events carry only the frame.
	eng       *sim.Engine
	shard     int
	rng       *sim.RNG
	priBase   uint64
	msgSeq    uint64
	enqueueFn func(any)
	deliverFn func(any)
	// faultDrops counts this port's sends lost to fault injection (the
	// egress-queue drop-tail counter lives in stats.Drops).
	faultDrops uint64

	ingressBusy sim.Time // sender-side wire occupancy
	egressBusy  sim.Time // receiver-side wire occupancy

	// starts holds the transmit start times of the frames the port has
	// admitted, ascending. Those after now are the frames still waiting:
	// the queue that drop-tail bounds to the switch's qcap.
	starts sim.Queue[sim.Time]

	// tr is the node's telemetry handle for egress-queue events (nil =
	// tracing disabled); it is owned by the same shard as the port.
	tr *trace.Node

	stats PortStats
}

// NewSwitch creates a switch with the given link characteristics and
// unbounded egress queues.
func NewSwitch(eng *sim.Engine, link params.Link, rng *sim.RNG) *Switch {
	return &Switch{eng: eng, link: link, rng: rng, qcap: Topology{}.queueCap()}
}

// SetTopology installs the egress queue bound. It must be called before
// any traffic flows (cluster wiring calls it right after construction);
// the configuration is validated here so malformed topologies fail loudly.
func (s *Switch) SetTopology(t Topology) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	s.qcap = t.queueCap()
}

// SetFault installs (or clears, with nil) the fault-injection plan.
func (s *Switch) SetFault(f *Fault) { s.fault = f }

// Attach registers a receiver as the port of the node whose MAC is mac.
// mac must be wire.NodeMAC(i) for some node i, which names slot i of the
// switch; any other address panics, so no MAC can alias a node's port. The
// port starts on the switch's own engine (shard 0); BindPort reassigns it.
// Its RNG stream and pri base are derived from the node alone — Derive
// does not consume the parent stream — so attaching a port never perturbs
// a sibling port's stream.
func (s *Switch) Attach(mac wire.MAC, rx Receiver) {
	node := mac.NodeIndex()
	if mac != wire.NodeMAC(node) {
		panic(fmt.Sprintf("fabric: port MAC %s is not a node MAC (want %s for node %d)", mac, wire.NodeMAC(node), node))
	}
	if node < len(s.ports) && s.ports[node] != nil {
		panic(fmt.Sprintf("fabric: duplicate port %s", mac))
	}
	if node >= len(s.ports) {
		s.ports = append(s.ports, make([]*port, node+1-len(s.ports))...)
	}
	idx := uint64(node)
	p := &port{
		mac:     mac,
		rx:      rx,
		node:    node,
		eng:     s.eng,
		rng:     s.rng.Derive(0xF0<<56 | idx),
		priBase: (idx + 1) << 40,
	}
	p.enqueueFn = func(f any) { s.enqueueNow(p, f.(*wire.Frame)) }
	p.deliverFn = func(f any) { s.deliverNow(p, f.(*wire.Frame)) }
	s.ports[node] = p
}

// SetShardCount prepares the switch for sharded execution across n engines:
// it allocates one cross-shard outbox per source shard. Call once during
// cluster wiring, before traffic, together with BindPort for every port.
func (s *Switch) SetShardCount(n int) {
	if n < 1 {
		panic(fmt.Sprintf("fabric: shard count %d < 1", n))
	}
	s.outbox = make([][]xmsg, n)
}

// BindPort assigns an attached port to a shard engine. Every event touching
// the port's state will be scheduled on eng; sends from a port on one shard
// to a port on another go through the outbox/FlushShards path.
func (s *Switch) BindPort(mac wire.MAC, shard int, eng *sim.Engine) {
	p := s.mustPort(mac)
	if s.outbox == nil || shard < 0 || shard >= len(s.outbox) {
		panic(fmt.Sprintf("fabric: shard %d out of range (SetShardCount first)", shard))
	}
	p.shard, p.eng = shard, eng
}

// FlushShards schedules every parked cross-shard message into its
// destination port's engine and reports whether there were any. Only the
// Group coordinator calls it, between windows, with all shard goroutines
// parked — which is what makes touching every shard's engine here safe.
// Messages inject in deterministic (source shard, send order) sequence, and
// their pri keys — not the destination engine's seq stamps — decide their
// execution order, so the injection order never shows through.
func (s *Switch) FlushShards() bool {
	any := false
	for si := range s.outbox {
		ob := s.outbox[si]
		if len(ob) == 0 {
			continue
		}
		any = true
		for i := range ob {
			m := &ob[i]
			m.p.eng.ScheduleArgPri(m.at, m.pri, m.p.enqueueFn, m.f)
			*m = xmsg{} // don't pin frames from the recycled backing array
		}
		s.outbox[si] = ob[:0]
	}
	return any
}

// Lookahead returns the minimum virtual-time distance between a send on one
// node and its earliest effect on any other node — the window size for
// conservative parallel execution. Every frame reaches the destination's
// egress queue at ingress-start + serialization + PropagationDelay +
// SwitchLatency, so propagation + switch latency is a strict lower bound.
func (s *Switch) Lookahead() sim.Time {
	return s.link.PropagationDelay + s.link.SwitchLatency
}

// portOf returns the port attached under mac, or nil if there is none. A
// MAC that only shares a node MAC's node bytes finds no port.
func (s *Switch) portOf(mac wire.MAC) *port {
	if i := mac.NodeIndex(); i < len(s.ports) {
		if p := s.ports[i]; p != nil && p.mac == mac {
			return p
		}
	}
	return nil
}

// mustPort is portOf for the configuration and statistics calls, where an
// unknown port is a caller bug.
func (s *Switch) mustPort(mac wire.MAC) *port {
	p := s.portOf(mac)
	if p == nil {
		panic(fmt.Sprintf("fabric: unknown port %s", mac))
	}
	return p
}

// PortStats returns a snapshot of the per-port counters for mac.
func (s *Switch) PortStats(mac wire.MAC) PortStats {
	return s.mustPort(mac).stats
}

// BindTrace attaches a telemetry handle to mac's port: egress-queue drops
// on that port are then emitted to the handle's timeline. The handle must
// belong to the same node (shard) as the port.
func (s *Switch) BindTrace(mac wire.MAC, h *trace.Node) {
	s.mustPort(mac).tr = h
}

// QueueLen returns the current egress-queue depth of mac's port: the
// admitted frames whose transmission starts after now.
func (s *Switch) QueueLen(mac wire.MAC) int {
	p := s.mustPort(mac)
	now, i := p.eng.Now(), 0
	for i < p.starts.Len() && p.starts.At(i) <= now {
		i++
	}
	return p.starts.Len() - i
}

// Send injects a frame at the source port at the current virtual time. The
// frame serializes onto the source link, crosses the switch, and is offered
// to the destination port's egress queue when it reaches the switch, so
// congestion, loss and queueing delay depend on what the port has admitted
// by then. Send takes over the caller's frame reference (see the package
// comment). It runs on the source port's shard and touches only
// source-port state, the fault configuration (read-only), and
// scheduleEgress.
//
//omxlint:hotpath
func (s *Switch) Send(f *wire.Frame) {
	src := s.portOf(f.Src)
	if src == nil {
		panic(fmt.Sprintf("fabric: unknown source %s", f.Src))
	}
	dst := s.portOf(f.Dst)
	if dst == nil {
		panic(fmt.Sprintf("fabric: unknown destination %s", f.Dst))
	}
	// The scenario hook's drop comes first: a down link transmits nothing,
	// so the frame is released before it ever occupies the wire.
	now := src.eng.Now()
	if h := s.hook(); h != nil && h.Drop(src.node, dst.node, now) {
		src.faultDrops++
		f.Release()
		return
	}
	// The sender's wire is busy until the frame has left the NIC; after
	// propagation and the store-and-forward latency it is ready at the
	// switch.
	ser := s.link.SerializationTime(f.WireBytes())
	start := max(now, src.ingressBusy)
	src.ingressBusy = start + ser
	ready := start + ser + s.link.PropagationDelay + s.link.SwitchLatency

	// Fault injection happens at the switch, before the egress queue: a
	// dropped frame never occupies buffer space. Draws come from the source
	// port's private stream so the sequence is shard-independent.
	if s.fault.matches(f) {
		if src.rng.Bool(s.fault.DropProb) {
			src.faultDrops++
			f.Release()
			return
		}
		if s.fault.DelayProb > 0 && src.rng.Bool(s.fault.DelayProb) {
			ready += s.fault.DelayTime
		}
		if s.fault.DupProb > 0 && src.rng.Bool(s.fault.DupProb) {
			f.Ref()
			s.scheduleEgress(src, dst, f, ready+ser)
		}
	}
	s.scheduleEgress(src, dst, f, ready)
}

// scheduleEgress queues an "offer frame to dst's egress queue" event at
// virtual time at, stamped with the source port's next pri key: directly on
// the destination's engine when both ports share a shard, via the
// cross-shard outbox otherwise. Note ready-time >= now + serialization +
// Lookahead(), the bound FlushShards' safety rests on.
func (s *Switch) scheduleEgress(src, dst *port, f *wire.Frame, at sim.Time) {
	src.msgSeq++
	pri := src.priBase | src.msgSeq
	if dst.shard != src.shard {
		s.outbox[src.shard] = append(s.outbox[src.shard], xmsg{p: dst, f: f, at: at, pri: pri})
		return
	}
	dst.eng.ScheduleArgPri(at, pri, dst.enqueueFn, f)
}

// enqueueNow offers a frame to the egress queue: drop-tail when full,
// otherwise FIFO admission. An admitted frame gets its transmit start on
// the port's busy-until horizon right away, and its arrival is scheduled
// then; frames whose start has come are no longer queued. A transmission
// that ends at now has freed the port before any offer at now. Runs on p's
// shard.
//
//omxlint:hotpath
func (s *Switch) enqueueNow(p *port, f *wire.Frame) {
	now := p.eng.Now()
	for p.starts.Len() > 0 && p.starts.At(0) <= now {
		p.starts.PopFront()
	}
	if p.starts.Len() >= s.qcap {
		p.stats.Drops++
		p.tr.Event(now, trace.EvPortDrop, int64(p.stats.Drops))
		f.Release()
		return
	}
	ser := s.link.SerializationTime(f.WireBytes())
	start := max(now, p.egressBusy)
	p.egressBusy = start + ser
	p.starts.PushBack(start)
	p.stats.Enqueued++
	if n := p.starts.Len(); n > p.stats.MaxQueueFrames {
		p.stats.MaxQueueFrames = n
	}
	p.stats.QueueWait += start - now
	at := start + ser + s.link.PropagationDelay + p.rng.Jitter(0, s.link.JitterSD)
	p.eng.ScheduleArg(at, p.deliverFn, f)
}

// deliverNow hands the frame (and its reference) to port p's receiver.
//
//omxlint:hotpath
func (s *Switch) deliverNow(p *port, f *wire.Frame) {
	p.stats.FramesDelivered++
	p.stats.BytesDelivered += uint64(f.WireBytes())
	p.rx.ReceiveFrame(f)
}

// FramesDelivered is the total frame count handed to receivers, summed over
// ports. Aggregate switch counters are sums of per-shard port counters —
// that is what lets each shard count without synchronization; read them
// only while no engine is running.
func (s *Switch) FramesDelivered() uint64 {
	var n uint64
	for _, p := range s.ports {
		if p != nil {
			n += p.stats.FramesDelivered
		}
	}
	return n
}

// FramesDropped is the total loss count: fault-injected drops plus egress
// drop-tail rejections, summed over ports.
func (s *Switch) FramesDropped() uint64 {
	var n uint64
	for _, p := range s.ports {
		if p != nil {
			n += p.faultDrops + p.stats.Drops
		}
	}
	return n
}
