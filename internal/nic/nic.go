// Package nic models the Ethernet interface: receive firmware, the DMA
// engine depositing packets into host memory, interrupt signalling with
// NAPI-style masking, and — the paper's contribution — pluggable interrupt
// coalescing strategies including the marker-driven Open-MX coalescing
// (Algorithm 1) and Stream coalescing (Algorithm 2).
package nic

import (
	"fmt"

	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// Driver is the host-side packet consumer (the Open-MX stack). Process is
// invoked in IRQ context on core during a NAPI poll; the driver charges its
// per-packet cost to the core and calls done when finished so the poll can
// move to the next packet.
type Driver interface {
	Process(d *RxDesc, core *host.Core, done func())
}

// RxDesc is a completion-ring entry: either a frame DMA'd into host memory
// or a transmit-done notification (myri10ge reports both through the same
// ring and the same interrupt coalescing).
type RxDesc struct {
	Frame *wire.Frame
	// TxDone marks a transmit-completion entry (Frame is nil).
	TxDone bool
	// Marked mirrors the latency-sensitive header flag, but only when the
	// active firmware inspects markers (Open-MX/Stream strategies).
	Marked bool
	// Queue is the receive queue the frame hashed to.
	Queue int
	// ArrivedAt and DMADoneAt timestamp the frame's path through the NIC.
	ArrivedAt sim.Time
	DMADoneAt sim.Time
}

// Stats aggregates NIC counters.
type Stats struct {
	PacketsReceived uint64
	PacketsSent     uint64
	BytesReceived   uint64
	BytesSent       uint64
	// Interrupts actually raised to the host.
	Interrupts uint64
	// TimeoutFires counts interrupts raised by the coalescing timer.
	TimeoutFires uint64
	// MarkedImmediate counts interrupts raised for marked packets at DMA
	// completion (Algorithm 1 path).
	MarkedImmediate uint64
	// Deferred counts marked interrupts deferred by Stream coalescing
	// because other DMAs were pending (Algorithm 2 path).
	Deferred uint64
	// RingDrops counts frames dropped because the receive ring was full.
	RingDrops uint64
	// FeedbackSteps counts effective delay adjustments made by the
	// feedback strategy's controller (clamped walks do not count).
	FeedbackSteps uint64
	// FeedbackClamps counts controller walks absorbed by the [min,max]
	// delay clamp — the controller wanted to move but could not.
	FeedbackClamps uint64
	// PollCycles counts NAPI poll sessions; PacketsPolled their packets.
	PollCycles    uint64
	PacketsPolled uint64
}

// NIC is one interface attached to a host and a fabric port.
//
// Completion-ring descriptors are recycled through a per-NIC sim.FreeList and
// every hot-path continuation (firmware -> DMA -> completion -> NAPI poll)
// is a callback bound once at construction, so receiving and transmitting a
// frame allocates nothing in steady state. A received frame's reference is
// released after the driver finishes processing its descriptor (the next
// poll step); descriptors handed to Driver.Process are only valid until the
// driver calls done.
type NIC struct {
	eng *sim.Engine
	p   *params.Params
	hst *host.Host
	sw  *fabric.Switch
	mac wire.MAC
	drv Driver

	queues []*rxQueue

	fwBusyUntil   sim.Time
	dmaBusyUntil  sim.Time
	sendBusyUntil sim.Time
	inflight      int // frames accepted but whose DMA has not completed

	descs     sim.FreeList[RxDesc]
	dmaDoneFn func(any)
	txWireFn  func(any)

	tr *trace.Node

	Stats Stats
}

// Config selects the coalescing behaviour of a NIC.
type Config struct {
	Strategy Strategy
	// Delay is the coalescing timeout (ignored by StrategyDisabled; the
	// initial value for StrategyAdaptive).
	Delay sim.Time
	// Queues is the number of receive queues (1 = stock single-queue NIC;
	// > 1 enables the Section VI multiqueue extension).
	Queues int
	// Feedback is the goal for StrategyFeedback (ignored by the other
	// strategies; zero fields fall back to the params defaults).
	Feedback FeedbackGoal
}

// New creates a NIC, attaches it to the switch under mac, and installs the
// configured coalescing strategy.
func New(eng *sim.Engine, p *params.Params, h *host.Host, sw *fabric.Switch, mac wire.MAC, cfg Config) *NIC {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	n := &NIC{eng: eng, p: p, hst: h, sw: sw, mac: mac}
	n.dmaDoneFn = func(x any) { n.dmaDone(x.(*RxDesc)) }
	n.txWireFn = func(x any) { n.txWire(x.(*wire.Frame)) }
	// Only the paper's modified firmwares read the latency-sensitive flag,
	// and the Stream firmware does extra bookkeeping per packet.
	markers := cfg.Strategy == StrategyOpenMX || cfg.Strategy == StrategyStream
	fw := p.NIC.FirmwareRxPacket
	if cfg.Strategy == StrategyStream {
		fw += p.NIC.FirmwareStreamExtra
	}
	n.queues = make([]*rxQueue, cfg.Queues)
	for i := range n.queues {
		q := &rxQueue{nic: n, idx: i, markers: markers, fw: fw}
		q.coal = newCoalescer(cfg, q)
		q.msiFn = func() {
			q.pollCore.SubmitIRQArg(n.p.Host.IRQEntry, true, q.pollStartFn, nil)
		}
		q.pollStartFn = func(any) {
			n.Stats.PollCycles++
			q.polled = 0
			n.pollStep(q)
		}
		q.pollEndFn = func(any) {
			if q.polled >= n.p.Host.NAPIBudget && q.completed.Len() > 0 {
				// Budget exhausted: NAPI reschedules the poll on the same
				// core without re-enabling interrupts.
				n.Stats.PollCycles++
				q.polled = 0
				n.pollStep(q)
				return
			}
			q.masked = false
			if q.completed.Len() > 0 {
				// Packets slipped in between the last pop and the unmask.
				q.coal.onBacklog()
			}
		}
		q.contFn = func() { n.pollStep(q) }
		n.queues[i] = q
	}
	sw.Attach(mac, n)
	return n
}

// SetDriver binds the host-side packet consumer.
func (n *NIC) SetDriver(d Driver) { n.drv = d }

// SetTrace binds the node's telemetry handle (nil = tracing disabled).
func (n *NIC) SetTrace(h *trace.Node) { n.tr = h }

// CurrentDelay reports the instantaneous coalescing delay of queue 0 —
// the gauge the feedback strategy walks and samplers chart over time.
func (n *NIC) CurrentDelay() sim.Time { return n.queues[0].coal.currentDelay() }

// MAC returns the interface address.
func (n *NIC) MAC() wire.MAC { return n.mac }

// Host returns the node this NIC interrupts.
func (n *NIC) Host() *host.Host { return n.hst }

// Strategy returns the active coalescing strategy name (queue 0).
func (n *NIC) Strategy() string { return n.queues[0].coal.Name() }

// Backlog returns the number of received-but-unprocessed packets.
func (n *NIC) Backlog() int {
	total := n.inflight
	for _, q := range n.queues {
		total += q.completed.Len()
	}
	return total
}

// ReceiveFrame implements fabric.Receiver: a frame's last bit arrived. The
// NIC takes over the frame's wire reference and releases it once the driver
// has processed the descriptor (or immediately, on a ring overflow drop).
func (n *NIC) ReceiveFrame(f *wire.Frame) {
	now := n.eng.Now()
	if n.Backlog() >= n.p.NIC.RxRingEntries {
		n.Stats.RingDrops++
		n.tr.Event(now, trace.EvRingDrop, int64(n.Stats.RingDrops))
		f.Release()
		return
	}
	q := n.queues[n.queueFor(f)]

	// Firmware processes packets serially: descriptor creation and, for the
	// marker-aware strategies, header inspection (q.fw). The DMA engine then
	// takes the descriptor as soon as it is free; both are FIFO, so the
	// DMA's completion is known on arrival.
	n.fwBusyUntil = max(now, n.fwBusyUntil) + q.fw
	start := max(n.fwBusyUntil, n.dmaBusyUntil)
	n.dmaBusyUntil = start + n.p.NIC.DMATime(f.PayloadLen+wire.HeaderLen)

	d := n.descs.Get()
	d.Frame = f
	d.Queue = q.idx
	d.ArrivedAt = now
	d.Marked = q.markers && f.Marked()
	n.inflight++
	n.Stats.PacketsReceived++
	n.Stats.BytesReceived += uint64(f.WireBytes())

	n.eng.ScheduleArg(n.dmaBusyUntil, n.dmaDoneFn, d)
}

func (n *NIC) dmaDone(d *RxDesc) {
	n.inflight--
	d.DMADoneAt = n.eng.Now()
	q := n.queues[d.Queue]
	q.completed.PushBack(d)
	q.coal.onDMAComplete(d, n.inflight)
}

func (n *NIC) queueFor(f *wire.Frame) int {
	if len(n.queues) == 1 {
		return 0
	}
	// Hash the communication channel (source node + endpoint pair) so one
	// channel's processing stays on one core (multiqueue extension).
	h := uint32(2166136261)
	for _, b := range f.Src {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(f.Header.SrcEP)) * 16777619
	h = (h ^ uint32(f.Header.DstEP)) * 16777619
	return int(h % uint32(len(n.queues)))
}

// requestInterrupt asks for an interrupt on q. If the queue is masked (a
// poll is in progress) the request is absorbed: the in-flight poll will pick
// the packets up, exactly like NAPI.
func (n *NIC) requestInterrupt(q *rxQueue, cause interruptCause) {
	if q.masked {
		return
	}
	q.masked = true
	n.Stats.Interrupts++
	switch cause {
	case causeTimeout:
		n.Stats.TimeoutFires++
	case causeMarked:
		n.Stats.MarkedImmediate++
	}
	n.tr.Event(n.eng.Now(), trace.EvIRQ, int64(cause))
	// One interrupt is outstanding per queue while masked, so the target
	// core parks on the queue until the poll cycle ends.
	q.pollCore = n.hst.IRQTarget(q.idx)
	n.eng.After(n.p.NIC.MSIDelivery, q.msiFn)
}

type interruptCause int

const (
	causeTimeout interruptCause = iota
	causeMarked
	causeImmediate // coalescing disabled
)

// pollStep is the NAPI poll loop: process up to budget packets, then close
// the cycle and unmask. Each entry first retires the descriptor (and frame)
// whose driver processing just completed.
//
//omxlint:hotpath
func (n *NIC) pollStep(q *rxQueue) {
	if d := q.cur; d != nil {
		q.cur = nil
		if d.Frame != nil {
			d.Frame.Release()
		}
		n.descs.Put(d)
	}
	if q.completed.Len() == 0 || q.polled >= n.p.Host.NAPIBudget {
		q.pollCore.SubmitIRQArg(n.p.Host.NAPIPollEnd, false, q.pollEndFn, nil)
		return
	}
	d := q.completed.PopFront()
	n.Stats.PacketsPolled++
	q.cur = d
	q.polled++
	n.drv.Process(d, q.pollCore, q.contFn)
}

// SendFrame transmits a frame: the NIC fetches it by DMA, hands it to the
// wire, and reports the transmit completion through the completion ring,
// where it is subject to the same interrupt coalescing as received packets
// (tx-done entries are never latency-sensitive, so only disabled coalescing
// interrupts per transmission — a large part of why disabling coalescing
// devastates message rate in Table I).
func (n *NIC) SendFrame(f *wire.Frame) {
	now := n.eng.Now()
	start := now
	if n.sendBusyUntil > start {
		start = n.sendBusyUntil
	}
	n.sendBusyUntil = start + n.p.NIC.TxTime(f.WireBytes())
	n.Stats.PacketsSent++
	n.Stats.BytesSent += uint64(f.WireBytes())
	n.eng.ScheduleArg(n.sendBusyUntil, n.txWireFn, f)
}

// txWire puts a fetched frame on the wire and reports the tx completion
// through the ring. The caller's frame reference travels with the frame into
// the fabric.
func (n *NIC) txWire(f *wire.Frame) {
	n.sw.Send(f)
	q := n.queues[0] // the tx ring reports through queue 0
	d := n.descs.Get()
	d.TxDone = true
	d.Queue = q.idx
	d.DMADoneAt = n.eng.Now()
	q.completed.PushBack(d)
	q.coal.onDMAComplete(d, n.inflight)
}

// String describes the NIC for diagnostics.
func (n *NIC) String() string {
	return fmt.Sprintf("nic(%s, %s, %dq)", n.mac, n.Strategy(), len(n.queues))
}
