// Package omx implements the Open-MX message-passing stack over the
// simulated Ethernet substrate: MX-style endpoints with 64-bit matching,
// eager small (<= 128 B) and medium (<= 32 KiB) messages, the large-message
// rendezvous / pull / notify protocol with 32-fragment blocks and pipelined
// requests, cumulative acks with retransmission, an event ring toward the
// application, an intra-node shared-memory path, and — the paper's sender
// contribution — the latency-sensitive packet marking policy (Section
// III-B).
package omx

import (
	"fmt"

	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// Addr identifies an endpoint on the fabric.
type Addr struct {
	MAC wire.MAC
	EP  uint8
}

func (a Addr) String() string { return fmt.Sprintf("%s/%d", a.MAC, a.EP) }

// MarkPolicy selects which packets the sender driver flags as
// latency-sensitive. The default marks exactly the set from Section III-B:
// small messages, the last fragment of medium messages, rendezvous, pull
// requests, the last pull reply of each block, and notify. Individual
// toggles drive the Table II marker ablation; MediumMarkShift moves the
// medium mark off the last fragment to emulate mis-ordering (Table III).
type MarkPolicy struct {
	Small         bool
	MediumLast    bool
	Rendezvous    bool
	PullRequest   bool
	PullLastReply bool
	Notify        bool
	// MediumMarkShift marks medium fragment N-1-shift instead of N-1
	// (the paper's mis-ordering emulation: "a mis-ordering degree X means
	// that packet N-X was marked instead of N").
	MediumMarkShift int
}

// DefaultMarkPolicy marks every latency-sensitive packet type.
func DefaultMarkPolicy() MarkPolicy {
	return MarkPolicy{
		Small: true, MediumLast: true, Rendezvous: true,
		PullRequest: true, PullLastReply: true, Notify: true,
	}
}

// Stats counts stack-level activity.
type Stats struct {
	// Sends and Recvs by class.
	SmallSent, MediumSent, LargeSent    uint64
	SmallRecvd, MediumRecvd, LargeRecvd uint64
	ShmSent                             uint64
	// Packet-level counters.
	PacketsIn, PacketsOut             uint64
	AcksSent, AcksReceived            uint64
	Retransmits, Duplicates           uint64
	InvalidDropped, NoEndpointDrop    uint64
	EventRingFull                     uint64
	UnexpectedMsgs                    uint64
	PullRequestsSent, PullRepliesSent uint64
	PullBlockRetries                  uint64
	NacksSent                         uint64
	// Robustness counters: Backoffs counts retry timers armed past the
	// base ResendTimeout (consecutive losses), GiveUps counts operations
	// abandoned after MaxResends attempts (channel or pull).
	Backoffs, GiveUps uint64
}

// Stack is the per-node Open-MX driver instance bound to one NIC.
//
// The stack's hot paths recycle everything per-packet: frames come from a
// pool (its own by default, a cluster-shared one via SetFramePool),
// reliable-channel tx, receive-dispatch and paced-send records sit on
// per-stack sim.FreeLists, and the dispatch/ack callbacks are bound once
// here, so a steady-state packet allocates nothing on send or receive.
type Stack struct {
	eng  *sim.Engine
	p    *params.Params
	hst  *host.Host
	nic  *nic.NIC
	rng  *sim.RNG
	Mark MarkPolicy

	// endpoints holds the open endpoints, indexed by id (nil where none
	// is open); Open grows it.
	endpoints []*Endpoint
	// lastRxCore tracks which core last ran the receive handler; a change
	// costs a cache-line bounce on the shared descriptors (Section III-B).
	lastRxCore int

	pool  *wire.Pool
	txs   sim.FreeList[txPacket]
	rxs   sim.FreeList[rxDispatch]
	paced sim.FreeList[pacedSend]

	rxEffectFn   func(any)
	invalidFn    func(any)
	noEndpointFn func(any)
	sendFrameFn  func(any)
	pacedFn      func(any)

	tr *trace.Node

	Stats Stats
}

// rxDispatch carries one packet from the cost phase to the effect phase of
// the receive handler (see rx.go).
type rxDispatch struct {
	ep   *Endpoint
	f    *wire.Frame
	core *host.Core
	ps   *pullState
	done func()
}

// pacedSend is a deferred channel.send of one paced medium fragment.
type pacedSend struct {
	ch  *channel
	f   *wire.Frame
	fn  func(any)
	arg any
}

// NewStack creates the driver for one node and installs it as the NIC's
// packet consumer. rng drives the medium-fragment pacing noise; nil gets a
// fixed stream.
func NewStack(eng *sim.Engine, p *params.Params, hst *host.Host, n *nic.NIC, rng *sim.RNG) *Stack {
	if rng == nil {
		rng = sim.NewRNG(0x51AC)
	}
	s := &Stack{
		eng: eng, p: p, hst: hst, nic: n, rng: rng,
		Mark:       DefaultMarkPolicy(),
		lastRxCore: -1,
		pool:       wire.NewPool(),
	}
	s.rxEffectFn = func(x any) {
		d := x.(*rxDispatch)
		ep, f, core, ps, done := d.ep, d.f, d.core, d.ps, d.done
		s.rxs.Put(d)
		ep.rxApply(f, core, ps)
		done()
	}
	s.invalidFn = func(x any) {
		s.Stats.InvalidDropped++
		x.(func())()
	}
	s.noEndpointFn = func(x any) {
		s.Stats.NoEndpointDrop++
		x.(func())()
	}
	s.sendFrameFn = func(x any) { s.sendFrame(x.(*wire.Frame)) }
	s.pacedFn = func(x any) {
		p := x.(*pacedSend)
		ch, f, fn, arg := p.ch, p.f, p.fn, p.arg
		s.paced.Put(p)
		ch.send(f, fn, arg)
	}
	n.SetDriver(s)
	return s
}

// SetFramePool replaces the stack's frame pool (cluster construction shares
// one pool across all nodes so frames recycle wherever they are released).
func (s *Stack) SetFramePool(p *wire.Pool) { s.pool = p }

// SetTrace binds the node's telemetry handle (nil = tracing disabled).
func (s *Stack) SetTrace(h *trace.Node) { s.tr = h }

// newFrame builds a pooled frame; the caller owns its single reference.
func (s *Stack) newFrame(src, dst wire.MAC, h wire.Header, payload []byte, payloadLen int) *wire.Frame {
	return s.pool.Get(src, dst, h, payload, payloadLen)
}

// schedulePaced queues ch.send(f, fn, arg) at virtual time at without
// allocating a closure per fragment.
func (s *Stack) schedulePaced(at sim.Time, ch *channel, f *wire.Frame, fn func(any), arg any) {
	p := s.paced.Get()
	p.ch, p.f, p.fn, p.arg = ch, f, fn, arg
	s.eng.ScheduleArg(at, s.pacedFn, p)
}

// NIC returns the interface this stack drives.
func (s *Stack) NIC() *nic.NIC { return s.nic }

// Host returns the node this stack runs on.
func (s *Stack) Host() *host.Host { return s.hst }

// MAC returns the node's fabric address.
func (s *Stack) MAC() wire.MAC { return s.nic.MAC() }

// Open creates an endpoint with the given id, serviced by the rank pinned
// to core.
func (s *Stack) Open(id uint8, core *host.Core) *Endpoint {
	if s.endpoint(id) != nil {
		panic(fmt.Sprintf("omx: endpoint %d already open", id))
	}
	if int(id) >= len(s.endpoints) {
		s.endpoints = append(s.endpoints, make([]*Endpoint, int(id)+1-len(s.endpoints))...)
	}
	e := newEndpoint(s, id, core)
	s.endpoints[id] = e
	return e
}

// endpoint returns the open endpoint with the given id, or nil.
func (s *Stack) endpoint(id uint8) *Endpoint {
	if int(id) < len(s.endpoints) {
		return s.endpoints[id]
	}
	return nil
}

// eagerFragPayload is the data carried per eager fragment.
func (s *Stack) eagerFragPayload() int {
	return s.p.Proto.EagerFragPayload(wire.HeaderLen)
}

// Process implements nic.Driver: one completion-ring entry, in IRQ context
// on core.
//
//omxlint:hotpath
func (s *Stack) Process(d *nic.RxDesc, core *host.Core, done func()) {
	bounce := sim.Time(0)
	cold := s.lastRxCore != core.ID
	if cold {
		bounce = s.p.Host.CacheBounce
		s.lastRxCore = core.ID
	}

	if d.TxDone {
		core.SubmitIRQ(s.p.Driver.TxFree+bounce, false, done)
		return
	}

	f := d.Frame
	h := &f.Header

	if h.Validate() != nil || h.Type == wire.TypeInvalid {
		// The overhead microbenchmark path: dropped by the receive handler
		// before any protocol work.
		core.SubmitIRQArg(s.p.Host.RxDropPacket+bounce, false, s.invalidFn, done)
		return
	}

	s.Stats.PacketsIn++
	ep := s.endpoint(h.DstEP)
	if ep == nil {
		core.SubmitIRQArg(s.p.Host.RxDropPacket+bounce, false, s.noEndpointFn, done)
		return
	}

	cost, ps := ep.rxCost(f, cold)
	rd := s.rxs.Get()
	rd.ep, rd.f, rd.core, rd.ps, rd.done = ep, f, core, ps, done
	core.SubmitIRQArg(cost+bounce, false, s.rxEffectFn, rd)
}

// rxCopyTime is the kernel copy cost for received eager payload into the
// ring; cold copies (after a core switch) run at the reduced bandwidth.
func (s *Stack) rxCopyTime(n int, cold bool) sim.Time {
	if cold {
		return s.p.Host.ColdCopyTime(n)
	}
	return s.p.Host.CopyTime(n)
}

// pullCopyTime is the kernel copy cost for pull replies into pinned user
// pages (slower than the ring copy).
func (s *Stack) pullCopyTime(n int, cold bool) sim.Time {
	if n <= 0 {
		return 0
	}
	bw := s.p.Host.PullCopyBandwidthBps
	if cold {
		bw = s.p.Host.PullColdCopyBandwidthBps
	}
	return sim.Time(int64(n) * 8 * int64(sim.Second) / bw)
}

// sendFrame hands a frame to the NIC (driver-side costs are charged by the
// caller in the appropriate context).
func (s *Stack) sendFrame(f *wire.Frame) {
	s.Stats.PacketsOut++
	s.nic.SendFrame(f)
}

// localEndpoint resolves an address on this node (shared-memory path).
func (s *Stack) localEndpoint(a Addr) *Endpoint {
	if a.MAC != s.MAC() {
		return nil
	}
	return s.endpoint(a.EP)
}
