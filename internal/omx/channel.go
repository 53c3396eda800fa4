package omx

import (
	"slices"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// channel is the reliable transport between one local endpoint and one
// remote endpoint: a sequence space with a send window and cumulative acks
// for eager traffic and the rendezvous/notify control packets. Pull
// requests and replies recover independently (block re-requests), as in
// MXoE.
//
// The channel retains sent frames (one pool reference each) until they are
// cumulatively acked; retransmission sends pooled copies so the retained
// originals stay immutable. Timer callbacks are bound once per channel.
type channel struct {
	ep     *Endpoint
	remote Addr

	// failed is set once the channel gives up (retry budget exhausted);
	// every subsequent send completes immediately with this error.
	failed error
	// rng jitters the backed-off retry delays. It is derived per channel
	// and never consumed on clean runs (the first resend after ack
	// progress always waits exactly ResendTimeout).
	rng *sim.RNG

	// Sender-side reliability state. resendAttempts counts consecutive
	// resend-timer expiries without ack progress; it drives the
	// exponential backoff and the MaxResends give-up.
	nextSeq        uint32
	firstUnacked   uint32
	txq            sim.Queue[*txPacket] // waiting for window
	retained       sim.Queue[*txPacket] // sent, not yet acked, in seq order
	resendTimer    *sim.Event
	resendAttempts int

	// Receiver-side reliability state. recvNext is the next expected
	// (contiguous) sequence; consumedTo is how far the library has
	// consumed; ackedTo is the last cumulative ack sent. Acks cover only
	// consumed sequences, so the sender's window is clocked by the
	// application and the event ring stays bounded by the window.
	recvNext   uint32
	recvSeen   map[uint32]struct{}
	consumedTo uint32
	ackedTo    uint32
	ackTimer   *sim.Event
	// lastRxCoreID remembers which core last handled this channel's
	// packets so timer-driven acks are charged there; -1 before any.
	lastRxCoreID int

	// Medium send slots: concurrent mediums per channel are bounded by
	// the endpoint's send-ring capacity; excess sends queue here.
	mediumActive  int
	mediumPending sim.Queue[*sendOp]

	// Messages still in progress, found by message id: from the remote
	// endpoint, the mediums the library is reassembling and the large
	// messages being pulled; to it, the large messages announced and not
	// yet notified, in the order they were posted. A channel has only a
	// few open at once, so a scan is cheaper than hashing.
	reasm []*mediumReasm
	pulls []*pullState
	large []*largeSend

	// Timer callbacks, bound once at construction.
	resendFn    func()
	kernelAckFn func()
}

// txPacket is one sequenced packet: the retained frame plus the callback to
// run when it is handed to the NIC. Records recycle through the stack's
// sim.FreeList.
type txPacket struct {
	frame *wire.Frame
	seq   uint32
	fn    func(any) // runs with arg when the packet is handed to the NIC
	arg   any
}

// mediumReasm is the library-level reassembly state of one medium message
// (Open-MX reassembles mediums in user space, one event per fragment).
type mediumReasm struct {
	msgID    uint32
	match    uint64
	total    int
	frags    int
	received int
	seen     []bool
	data     []byte // nil in size-only mode
	src      Addr
}

func newChannel(ep *Endpoint, remote Addr) *channel {
	key := uint64(remote.MAC[3])<<32 | uint64(remote.MAC[4])<<24 |
		uint64(remote.MAC[5])<<16 | uint64(remote.EP)<<8 | uint64(ep.ID)
	c := &channel{
		ep:           ep,
		remote:       remote,
		rng:          ep.stack.rng.Derive(0xBACC<<44 | key),
		recvSeen:     make(map[uint32]struct{}),
		lastRxCoreID: -1,
	}
	c.resendFn = func() {
		c.resendTimer = nil
		c.retransmit()
	}
	c.kernelAckFn = func() {
		c.ackTimer = nil
		p := c.stack().p
		if c.ep.ring.Len() < p.Proto.EventRingEntries/16 {
			if c.recvNext != c.ackedTo {
				c.sendAck(false, c.recvNext)
			}
			return
		}
		if c.consumedTo != c.ackedTo {
			c.sendAck(false, c.consumedTo)
			return
		}
		c.armKernelAck() // still backed up: check again later
	}
	return c
}

func (c *channel) stack() *Stack { return c.ep.stack }

// inWindow reports whether seq may be transmitted now.
func (c *channel) inWindow(seq uint32) bool {
	return int(seq-c.firstUnacked) < c.stack().p.Proto.SendWindow
}

// send enqueues a sequenced packet and pumps the window. fn(arg) runs when
// the packet is handed to the NIC; both must outlive the packet (use
// long-lived callbacks). The caller's frame reference becomes the channel's
// retention reference, released once the packet is cumulatively acked.
// Sends on a failed channel complete immediately with the channel's error.
func (c *channel) send(f *wire.Frame, fn func(any), arg any) {
	if c.failed != nil {
		c.failSend(f, fn, arg, c.failed)
		return
	}
	pk := c.stack().txs.Get()
	pk.frame, pk.seq, pk.fn, pk.arg = f, c.nextSeq, fn, arg
	f.Header.Seq = pk.seq
	c.nextSeq++
	c.txq.PushBack(pk)
	c.pump()
}

// pump transmits queued packets while the window allows.
//
//omxlint:hotpath
func (c *channel) pump() {
	for c.txq.Len() > 0 && c.inWindow(c.txq.At(0).seq) {
		pk := c.txq.PopFront()
		c.retained.PushBack(pk)
		// One reference travels the wire; the retained one stays here.
		pk.frame.Ref()
		c.stack().sendFrame(pk.frame)
		if pk.fn != nil {
			pk.fn(pk.arg)
		}
	}
	c.armResend()
}

func (c *channel) armResend() {
	if c.retained.Len() == 0 {
		if c.resendTimer != nil {
			c.resendTimer.Cancel()
			c.resendTimer = nil
		}
		return
	}
	if c.resendTimer != nil {
		return
	}
	s := c.stack()
	d := s.p.Proto.ResendTimeout
	if c.resendAttempts > 0 {
		// Consecutive expiries without ack progress back off
		// exponentially (with deterministic jitter) instead of hammering
		// a congested or dead link at a fixed period.
		d = backoffDelay(&s.p.Proto, c.rng, c.resendAttempts)
		s.Stats.Backoffs++
	}
	c.resendTimer = s.eng.After(d, c.resendFn)
}

// backoffDelay returns the bounded-exponential retry delay for the given
// consecutive-attempt count, jittered deterministically from rng so peers
// that timed out together desynchronize identically on every run.
func backoffDelay(p *params.Proto, rng *sim.RNG, attempts int) sim.Time {
	if attempts > 20 {
		attempts = 20 // avoid shifting into the sign bit
	}
	d := p.ResendTimeout << uint(attempts)
	if p.ResendBackoffMax > 0 && d > p.ResendBackoffMax {
		d = p.ResendBackoffMax
	}
	return d + sim.Time(rng.Intn(int(d/8)+1))
}

// retransmit resends every unacked packet (go-back-N recovery). Copies go
// on the wire so the retained originals stay valid for the next timeout.
// After MaxResends consecutive timer expiries without ack progress the
// channel gives up instead of retrying forever.
func (c *channel) retransmit() {
	s := c.stack()
	if mr := s.p.Proto.MaxResends; mr > 0 && c.resendAttempts >= mr {
		c.giveUp(ErrGiveUp)
		return
	}
	c.resendAttempts++
	for i := 0; i < c.retained.Len(); i++ {
		s.Stats.Retransmits++
		s.sendFrame(s.pool.Clone(c.retained.At(i).frame))
	}
	c.armResend()
}

// giveUp abandons the channel: the retry budget is exhausted, so retained
// and queued packets are dropped, their handles complete with err, and
// large sends toward the peer — which wait for a Notify that can never
// arrive — fail too. Run-level liveness is the watchdog's job.
func (c *channel) giveUp(err error) {
	if c.failed != nil {
		return
	}
	s := c.stack()
	s.Stats.GiveUps++
	s.tr.Event(s.eng.Now(), trace.EvGiveUp, int64(s.Stats.GiveUps))
	c.teardown(err)

	// Large messages toward this peer, in the order they were posted.
	large := c.large
	c.large = nil
	for _, ls := range large {
		ls.handle.fail(err)
	}
}

// teardown marks the channel failed and flushes every queued packet and
// timer. Draining txq may cascade (a failed medium's completion hands its
// send slot to the next pending medium, whose fragments then fail through
// the send fast path), which is why failed is set first.
func (c *channel) teardown(err error) {
	s := c.stack()
	if c.failed == nil {
		c.failed = err
	}
	if c.resendTimer != nil {
		c.resendTimer.Cancel()
		c.resendTimer = nil
	}
	for c.retained.Len() > 0 {
		// Handed to the NIC already: the handoff callback ran at pump
		// time, only the retention reference remains.
		pk := c.retained.PopFront()
		pk.frame.Release()
		s.txs.Put(pk)
	}
	for c.txq.Len() > 0 {
		pk := c.txq.PopFront()
		c.failSend(pk.frame, pk.fn, pk.arg, err)
		s.txs.Put(pk)
	}
	for c.mediumPending.Len() > 0 {
		op := c.mediumPending.PopFront()
		if op.h != nil {
			op.h.fail(err)
		}
		c.ep.ops.Put(op)
	}
}

// failSend completes a packet's handoff callback with err instead of
// transmitting, and drops the frame reference. The handle types are
// recognized by their callback argument so eager and medium completions
// surface the error uniformly.
func (c *channel) failSend(f *wire.Frame, fn func(any), arg any, err error) {
	switch a := arg.(type) {
	case *SendHandle:
		if a.Err == nil {
			a.Err = err
		}
	case *sendOp:
		if a.h != nil && a.h.Err == nil {
			a.h.Err = err
		}
	}
	if fn != nil {
		fn(arg)
	}
	f.Release()
}

// onAck processes a cumulative ack: cum is the peer's next-expected seq.
// pump retains packets in seq order, so the acked ones are a prefix.
//
//omxlint:hotpath
func (c *channel) onAck(cum uint32) {
	s := c.stack()
	s.Stats.AcksReceived++
	if int32(cum-c.firstUnacked) <= 0 {
		return // stale
	}
	c.firstUnacked = cum
	c.resendAttempts = 0 // ack progress: the peer is alive, backoff resets
	for c.retained.Len() > 0 && int32(c.retained.At(0).seq-cum) < 0 {
		pk := c.retained.PopFront()
		pk.frame.Release() // retention reference
		s.txs.Put(pk)
	}
	if c.resendTimer != nil {
		c.resendTimer.Cancel()
		c.resendTimer = nil
	}
	c.armResend()
	c.pump()
}

// acceptSeq deduplicates and advances the cumulative receive pointer.
// Returns false for duplicates (which are re-acked but not reprocessed).
// The next expected sequence with nothing buffered beyond it, the case of
// every packet on a clean link, never touches the out-of-order set.
//
//omxlint:hotpath
func (c *channel) acceptSeq(seq uint32) bool {
	switch d := int32(seq - c.recvNext); {
	case d < 0:
		c.stack().Stats.Duplicates++
		c.sendAckNow() // immediate re-ack resynchronizes the sender
		return false
	case d == 0 && len(c.recvSeen) == 0:
		c.recvNext++
	case !c.acceptOutOfOrder(seq):
		return false
	}
	c.armKernelAck()
	return true
}

// acceptOutOfOrder is acceptSeq after loss or reordering: seq is at or
// beyond recvNext and the out-of-order set decides whether it is new.
// recvNext then advances over every buffered sequence it makes contiguous.
func (c *channel) acceptOutOfOrder(seq uint32) bool {
	if _, dup := c.recvSeen[seq]; dup {
		c.stack().Stats.Duplicates++
		c.sendAckNow()
		return false
	}
	c.recvSeen[seq] = struct{}{}
	for {
		if _, ok := c.recvSeen[c.recvNext]; !ok {
			break
		}
		delete(c.recvSeen, c.recvNext)
		c.recvNext++
	}
	return true
}

// reasmFor returns the reassembly of medium message id, or nil.
func (c *channel) reasmFor(id uint32) *mediumReasm {
	for _, r := range c.reasm {
		if r.msgID == id {
			return r
		}
	}
	return nil
}

// largeFor returns the announced large send with message id, or nil.
func (c *channel) largeFor(id uint32) *largeSend {
	for _, ls := range c.large {
		if ls.msgID == id {
			return ls
		}
	}
	return nil
}

// pullFor returns the pull of large message id, or nil.
func (c *channel) pullFor(id uint32) *pullState {
	for _, ps := range c.pulls {
		if ps.msgID == id {
			return ps
		}
	}
	return nil
}

// deleteElem removes x from s, keeping the order of the rest.
func deleteElem[T comparable](s []T, x T) []T {
	i := slices.Index(s, x)
	return slices.Delete(s, i, i+1)
}

// armKernelAck schedules the driver-side ack backstop: when the event ring
// is nearly empty (the library is keeping up or briefly away), the driver
// acks accepted sequences after AckDelay, so compute phases do not stall
// the sender's window into retransmits. Under sustained receive pressure
// the backstop stands down and acks stay consumption-clocked.
func (c *channel) armKernelAck() {
	if c.ackTimer != nil {
		return
	}
	c.ackTimer = c.stack().eng.After(c.stack().p.Proto.AckDelay, c.kernelAckFn)
}

// noteConsumed runs when the library applies an event covering sequences
// up to seq: every AckInterval consumed messages — or the ack-delay timer —
// trigger the cumulative ack. Acks are never marked latency-sensitive;
// that asymmetry is why the Open-MX coalescing firmware still beats
// disabled coalescing on message rate (Section IV-C2).
func (c *channel) noteConsumed(seq uint32) {
	if int32(seq-c.consumedTo) > 0 {
		c.consumedTo = seq
	}
	if int(c.consumedTo-c.ackedTo) >= c.stack().p.Proto.AckInterval {
		c.sendAck(true, c.consumedTo)
	}
}

func (c *channel) sendAckNow() {
	seq := c.consumedTo
	if int32(c.ackedTo-seq) > 0 {
		seq = c.ackedTo // never regress a previously sent kernel ack
	}
	c.sendAck(false, seq)
}

// sendAck emits a cumulative ack up to seq. fromApp acks are generated by
// the library as it consumes (charged to the application's core); kernel
// acks (duplicate resync, delay-timer backstop) run in driver context on
// the core that last handled the channel.
func (c *channel) sendAck(fromApp bool, seq uint32) {
	if int32(seq-c.ackedTo) > 0 {
		c.ackedTo = seq
	}
	if c.ackTimer != nil {
		c.ackTimer.Cancel()
		c.ackTimer = nil
	}
	if int32(c.recvNext-c.ackedTo) > 0 {
		// Accepted-but-unacked sequences remain: keep the backstop alive.
		c.armKernelAck()
	}
	s := c.stack()
	h := wire.Header{
		Type:  wire.TypeAck,
		SrcEP: c.ep.ID,
		DstEP: c.remote.EP,
		Aux:   c.ackedTo,
	}
	f := s.newFrame(s.MAC(), c.remote.MAC, h, nil, 0)
	s.Stats.AcksSent++
	if fromApp {
		c.ep.core.SubmitUserArg(s.p.Driver.AckCost, s.sendFrameFn, f)
		return
	}
	core := s.hst.Cores[0]
	if c.lastRxCoreID >= 0 {
		core = s.hst.Cores[c.lastRxCoreID]
	}
	core.SubmitIRQArg(s.p.Driver.AckCost, false, s.sendFrameFn, f)
}

// mediumDone releases the caller's medium send slot, handing it to the
// next queued medium if any.
//
//omxlint:hotpath
func (c *channel) mediumDone() {
	if c.mediumPending.Len() > 0 {
		c.ep.emitMediumFrags(c.mediumPending.PopFront()) // the slot passes directly to the next message
		return
	}
	c.mediumActive--
	if c.mediumActive < 0 {
		panic("omx: medium slot underflow")
	}
}
