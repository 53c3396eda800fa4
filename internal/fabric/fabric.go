// Package fabric models the Ethernet network between hosts: full-duplex
// links into a store-and-forward switch with per-egress-port serialization
// and queueing, propagation delay, per-frame timing jitter, and optional
// fault injection (drop, duplicate, delay-induced reordering).
//
// Ports are indexed by node: the port of node i sits in slot i of the
// switch and is attached under wire.NodeMAC(i), the only MAC Attach
// accepts, so a send finds both of its ports without hashing an address.
//
// Two switching models are available, selected by Topology. Both time
// egress the same way: each egress port keeps a busy-until horizon, and a
// frame starts transmitting when it is ready at the switch or when the
// port's previous frame has left, whichever is later.
//
//   - TopologyDirect (the default, and the paper's evaluation setup): the
//     sender reserves the destination port's horizon at send time, so the
//     port is an unbounded serialization resource. Frames are never lost to
//     congestion; a burst into one port simply stretches the horizon. This
//     is exact for the paper's 2-node back-to-back link and stays
//     bit-identical across releases. Reserving a shared horizon from the
//     sending side couples ports at zero distance, so the model has zero
//     lookahead and always runs serially.
//   - TopologyOutputQueued: an output-queued switch with a bounded FIFO
//     drop-tail queue per egress port and per-port occupancy/drop/latency
//     statistics. The port reserves its horizon when it admits a frame, on
//     the port's own shard. This is the model for N-node shared-fabric
//     scenarios (incast fan-in, background bulk streams congesting a port)
//     where the interrupt-load/latency tradeoff meets switch buffering.
//
// The fabric is where large-message bandwidth and the inter-packet gaps seen
// by the receiving NIC are decided, so it directly shapes the pull-protocol
// results (Table II) and the Stream-coalescing deferral window (Table III).
//
// # Sharded execution
//
// The output-queued switch can run under the conservative parallel engine
// (see internal/sim.Group): every port is bound to a shard engine
// (BindPort), all port state — busy horizons, admitted start times,
// statistics, RNG stream, delivery-record free list — is touched only by
// events running on that port's shard, and a send whose destination port
// lives on another shard is parked in a per-source-shard outbox instead of
// being scheduled directly. The synchronizer drains the outboxes between
// windows (FlushShards) while every shard goroutine is parked.
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
// To keep "same model, any Parallelism" bit-identical, the queued path uses
// the per-port RNG streams and pri stamps even when running on a single
// engine. The direct topology predates all of this and is frozen: it keeps
// the switch-wide RNG stream and always runs serially.
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
// frame after delivering or releasing it: in-flight delivery records and
// the free lists they recycle through only ever hold frames the fabric
// currently owns.
package fabric

import (
	"fmt"

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

// TopologyKind selects the switching model.
type TopologyKind int

const (
	// TopologyDirect is the legacy ideal model: unbounded per-port egress
	// serialization, no queue, no congestion loss.
	TopologyDirect TopologyKind = iota
	// TopologyOutputQueued is the bounded output-queued switch: each egress
	// port owns a FIFO queue of at most Topology.EgressQueueFrames frames;
	// arrivals beyond that are dropped (drop-tail).
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
// selects the output-queued model without an explicit bound. 128 full
// frames per port is in the range of the shallow shared-buffer switches of
// the paper's era.
const DefaultEgressQueueFrames = 128

// Topology configures the switching model. The zero value is the legacy
// direct model, guaranteeing existing 2-node configurations behave (and
// measure) exactly as before.
type Topology struct {
	// Kind selects direct (ideal) or output-queued (bounded) switching.
	Kind TopologyKind
	// EgressQueueFrames bounds each egress port's queue in frames for the
	// output-queued model; <= 0 selects DefaultEgressQueueFrames. Ignored
	// by the direct model.
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
	if t.EgressQueueFrames > 0 {
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

// PortStats are the per-egress-port counters of the switch. In the direct
// model only the delivery counters advance; the queue fields are specific
// to the output-queued model.
type PortStats struct {
	// FramesDelivered and BytesDelivered count frames handed to the port's
	// receiver.
	FramesDelivered uint64 `json:"frames_delivered"`
	BytesDelivered  uint64 `json:"bytes_delivered"`
	// Enqueued counts frames admitted to the egress queue.
	Enqueued uint64 `json:"enqueued"`
	// Drops counts frames rejected by the full egress queue (drop-tail).
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
	eng   *sim.Engine
	link  params.Link
	rng   *sim.RNG
	topo  Topology
	qcap  int
	ports []*port
	fault *Fault

	// In-flight deliveries (and, in the output-queued model, pending
	// egress-enqueue records) are recycled through per-port free lists and
	// fire through bound callbacks, so forwarding a frame never allocates.
	deliverFn func(any)
	enqueueFn func(any)

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

// delivery is one scheduled frame arrival at a port (also reused as the
// switch-internal "frame ready for egress queueing" record).
type delivery struct {
	p *port
	f *wire.Frame
}

type port struct {
	mac  wire.MAC
	rx   Receiver
	node int // wire.MAC.NodeIndex of mac, passed to scenario hooks

	// Shard binding: all events touching this port's state run on eng
	// (shard 0 / the switch's engine until BindPort says otherwise). rng is
	// the port's private stream for queued-path draws, priBase|++msgSeq the
	// order-independent tie-break key for the port's sends, and delivFree
	// the port-local record free list — each owned by the port's shard.
	eng     *sim.Engine
	shard   int
	rng     *sim.RNG
	priBase uint64
	msgSeq  uint64
	// faultDrops counts this port's sends lost to fault injection (the
	// egress-queue drop-tail counter lives in stats.Drops).
	faultDrops uint64
	delivFree  []*delivery

	ingressBusy sim.Time // sender-side wire occupancy
	egressBusy  sim.Time // receiver-side wire occupancy

	// starts holds the transmit start times of the frames the
	// output-queued port has admitted, ascending. Those after now are the
	// frames still waiting: the queue that drop-tail bounds to the
	// switch's qcap.
	starts sim.Queue[sim.Time]

	// tr is the node's telemetry handle for egress-queue events (nil =
	// tracing disabled); it is owned by the same shard as the port.
	tr *trace.Node

	stats PortStats
}

// NewSwitch creates a switch with the given link characteristics and the
// default direct topology.
func NewSwitch(eng *sim.Engine, link params.Link, rng *sim.RNG) *Switch {
	s := &Switch{eng: eng, link: link, rng: rng, qcap: Topology{}.queueCap()}
	s.deliverFn = func(x any) { s.deliverNow(x.(*delivery)) }
	s.enqueueFn = func(x any) { s.enqueueNow(x.(*delivery)) }
	return s
}

// SetTopology installs the switching model. It must be called before any
// traffic flows (cluster wiring calls it right after construction); the
// configuration is validated here so malformed topologies fail loudly.
func (s *Switch) SetTopology(t Topology) {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	s.topo = t
	s.qcap = t.queueCap()
}

// SetFault installs (or clears, with nil) the fault-injection plan.
func (s *Switch) SetFault(f *Fault) { s.fault = f }

// Attach registers a receiver as the port of the node whose MAC is mac.
// mac must be wire.NodeMAC(i) for some node i, which names slot i of the
// switch; any other address panics, so no MAC can alias a node's port. The
// port starts on the switch's own engine (shard 0); BindPort reassigns it.
// Its RNG stream and pri base are derived from the node alone — Derive
// does not consume the parent stream — so attaching ports perturbs neither
// the frozen direct-path draw order nor any sibling port's stream.
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
	s.ports[node] = &port{
		mac:     mac,
		rx:      rx,
		node:    node,
		eng:     s.eng,
		rng:     s.rng.Derive(0xF0<<56 | idx),
		priBase: (idx + 1) << 40,
	}
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
			m.p.eng.ScheduleArgPri(m.at, m.pri, s.enqueueFn, m.p.getDelivery(m.f))
			*m = xmsg{} // don't pin frames from the recycled backing array
		}
		s.outbox[si] = ob[:0]
	}
	return any
}

// Lookahead returns the minimum virtual-time distance between a send on one
// node and its earliest effect on any other node — the window size for
// conservative parallel execution. Every queued-path frame reaches the
// destination's egress queue at ingress-start + serialization +
// PropagationDelay + SwitchLatency, so propagation + switch latency is a
// strict lower bound. The direct topology's shared egress busy-horizons
// couple ports at zero distance, so its lookahead is 0 (cannot shard).
func (s *Switch) Lookahead() sim.Time {
	if s.topo.Kind != TopologyOutputQueued {
		return 0
	}
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
// admitted frames whose transmission starts after now (always 0 in the
// direct model).
func (s *Switch) QueueLen(mac wire.MAC) int {
	p := s.mustPort(mac)
	now, i := p.eng.Now(), 0
	for i < p.starts.Len() && p.starts.At(i) <= now {
		i++
	}
	return p.starts.Len() - i
}

// Send injects a frame at the source port at the current virtual time. The
// frame serializes onto the source link, crosses the switch, and reaches
// the destination port's egress resource: an ideal serializer in the direct
// model, a bounded drop-tail queue in the output-queued model. Send takes
// over the caller's frame reference (see the package comment).
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
	if s.topo.Kind == TopologyOutputQueued {
		s.sendQueued(src, dst, f)
		return
	}
	s.sendDirect(src, dst, f)
}

// ingress is the part of a send both switching models share: the scenario
// hook's verdict, then the sender's wire, which is busy until the frame has
// left the NIC. It returns when the frame, after propagation and the
// store-and-forward switch latency, is ready for the destination's egress,
// and the frame's serialization time. ok is false when the hook dropped the
// frame, which is then released before it ever occupied the wire. It runs
// on the source port's shard and touches only source-port state.
func (s *Switch) ingress(src, dst *port, f *wire.Frame) (ready, ser sim.Time, ok bool) {
	now := src.eng.Now()
	if h := s.hook(); h != nil && h.Drop(src.node, dst.node, now) {
		src.faultDrops++
		f.Release()
		return 0, 0, false
	}
	ser = s.link.SerializationTime(f.WireBytes())
	start := max(now, src.ingressBusy)
	src.ingressBusy = start + ser
	return start + ser + s.link.PropagationDelay + s.link.SwitchLatency, ser, true
}

// egress reserves p's wire for a frame of serialization time ser that is
// ready at ready, and returns the frame's transmit start.
func (p *port) egress(ready, ser sim.Time) sim.Time {
	start := max(ready, p.egressBusy)
	p.egressBusy = start + ser
	return start
}

// sendDirect is the legacy ideal path: the destination's egress is
// reserved at send time and only the final arrival is a scheduled event.
// This code path (including its RNG draw order: jitter, then the static
// drop, delay and duplicate draws) is frozen: existing 2-node reports
// depend on it bit for bit.
func (s *Switch) sendDirect(src, dst *port, f *wire.Frame) {
	ready, ser, ok := s.ingress(src, dst, f)
	if !ok {
		return
	}
	arrival := dst.egress(ready, ser) + ser + s.link.PropagationDelay
	arrival += s.rng.Jitter(0, s.link.JitterSD)

	// Fault injection. The caller's frame reference transfers to the
	// delivery; drops release it and duplicates take an extra one.
	if s.fault.matches(f) {
		if s.rng.Bool(s.fault.DropProb) {
			src.faultDrops++
			f.Release()
			return
		}
		if s.fault.DelayProb > 0 && s.rng.Bool(s.fault.DelayProb) {
			arrival += s.fault.DelayTime
		}
		if s.fault.DupProb > 0 && s.rng.Bool(s.fault.DupProb) {
			f.Ref()
			s.deliver(dst, f, arrival+s.rng.Jitter(ser, s.link.JitterSD))
		}
	}
	s.deliver(dst, f, arrival)
}

// sendQueued is the output-queued path: the frame is offered to the
// destination's bounded egress queue when it reaches the switch, so
// congestion, loss and queueing delay depend on what the port has admitted
// by then. It runs on the source port's shard and touches only source-port
// state, the fault/topology configuration (read-only), and scheduleEgress.
func (s *Switch) sendQueued(src, dst *port, f *wire.Frame) {
	ready, ser, ok := s.ingress(src, dst, f)
	if !ok {
		return
	}

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
	dst.eng.ScheduleArgPri(at, pri, s.enqueueFn, dst.getDelivery(f))
}

// enqueueNow offers a frame to the egress queue: drop-tail when full,
// otherwise FIFO admission. An admitted frame gets its transmit start on
// the port's busy-until horizon right away, and its arrival is scheduled
// then; frames whose start has come are no longer queued. A transmission
// that ends at now has freed the port before any offer at now. Runs on p's
// shard.
//
//omxlint:hotpath
func (s *Switch) enqueueNow(d *delivery) {
	p, f := d.p, d.f
	p.putDelivery(d)
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
	start := p.egress(now, ser)
	p.starts.PushBack(start)
	p.stats.Enqueued++
	if n := p.starts.Len(); n > p.stats.MaxQueueFrames {
		p.stats.MaxQueueFrames = n
	}
	p.stats.QueueWait += start - now
	s.deliver(p, f, start+ser+s.link.PropagationDelay+p.rng.Jitter(0, s.link.JitterSD))
}

// getDelivery takes a record for port p off p's free list. Records for a
// port are only ever allocated and recycled by p's own shard (or by the
// coordinator during a flush, with all shards parked), so the list needs no
// locking.
func (p *port) getDelivery(f *wire.Frame) *delivery {
	var d *delivery
	if k := len(p.delivFree); k > 0 {
		d = p.delivFree[k-1]
		p.delivFree[k-1] = nil
		p.delivFree = p.delivFree[:k-1]
	} else {
		d = &delivery{}
	}
	d.p, d.f = p, f
	return d
}

// putDelivery clears and recycles a delivery record.
func (p *port) putDelivery(d *delivery) {
	d.p, d.f = nil, nil
	p.delivFree = append(p.delivFree, d)
}

// deliver schedules the frame's arrival at p. Its callers run on p's shard
// (direct sends are always single-shard; queued arrivals come from p's own
// enqueueNow), so scheduling on p.eng is always a same-shard operation.
func (s *Switch) deliver(p *port, f *wire.Frame, at sim.Time) {
	p.eng.ScheduleArg(at, s.deliverFn, p.getDelivery(f))
}

// deliverNow hands the frame (and its reference) to the destination port.
func (s *Switch) deliverNow(d *delivery) {
	p, f := d.p, d.f
	p.putDelivery(d)
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
