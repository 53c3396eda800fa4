package omx

import (
	"fmt"

	"openmxsim/internal/host"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// SendHandle tracks an in-progress send. Eager sends complete when their
// last fragment is handed to the NIC (buffered semantics); large sends
// complete when the receiver's Notify arrives (Fig. 3).
type SendHandle struct {
	Done bool
	// Err is non-nil when the operation was abandoned rather than
	// delivered: ErrGiveUp after the retry budget ran out.
	Err    error
	Size   int
	onDone func()
}

func (h *SendHandle) complete() {
	if h.Done {
		return
	}
	h.Done = true
	if h.onDone != nil {
		h.onDone()
	}
}

// fail completes the handle with err (first error wins).
func (h *SendHandle) fail(err error) {
	if h.Done {
		return
	}
	if h.Err == nil {
		h.Err = err
	}
	h.complete()
}

// RecvHandle tracks a posted receive. Matching follows MX semantics: the
// message matches when (msgMatch & Mask) == (Match & Mask).
type RecvHandle struct {
	Done bool
	// Err is non-nil when the receive was abandoned rather than
	// delivered: ErrGiveUp when a large-message pull exhausted its retry
	// budget. Len and Buf contents are meaningless in that case.
	Err   error
	Match uint64
	Mask  uint64
	// Buf, when non-nil, receives the data; Cap is the logical capacity
	// for size-only operation.
	Buf []byte
	Cap int
	// Src and Len describe the matched message once Done.
	Src    Addr
	MatchV uint64
	Len    int
	onDone func(*RecvHandle)
}

func (h *RecvHandle) complete() {
	if h.Done {
		return
	}
	h.Done = true
	if h.onDone != nil {
		h.onDone(h)
	}
}

// fail completes the handle with err (first error wins).
func (h *RecvHandle) fail(err error) {
	if h.Done {
		return
	}
	if h.Err == nil {
		h.Err = err
	}
	h.complete()
}

func (h *RecvHandle) matches(m uint64) bool {
	return (m & h.Mask) == (h.Match & h.Mask)
}

type evKind int

const (
	evEager evKind = iota
	evMediumFrag
	evRendezvous
	evPullDone
	evNotifyRecvd
)

// event is one entry of the driver-to-library ring. Events recycle through
// the endpoint's sim.FreeList once the library has applied them.
type event struct {
	kind       evKind
	src        Addr
	match      uint64
	data       []byte
	size       int // message size (for mediums: total message size)
	msgID      uint32
	fragIdx    int         // evMediumFrag
	fragCount  int         // evMediumFrag
	rh         *RecvHandle // evPullDone
	ch         *channel    // non-nil for sequenced packets: acked on consume
	ackSeq     uint32      // cumulative sequence this event's consumption acks
	writerCore int
}

type unexpMsg struct {
	kind  evKind // evEager or evRendezvous
	src   Addr
	match uint64
	data  []byte
	size  int
	msgID uint32
}

// sendOp carries one posted operation (send or shared-memory transfer)
// through the user-context cost charge to its protocol action, replacing a
// per-call closure. Records recycle through the endpoint's sim.FreeList.
type sendOp struct {
	dst   Addr
	match uint64
	data  []byte
	size  int
	frags int
	h     *SendHandle
	ch    *channel
	local *Endpoint // shm destination
}

// Endpoint is an open MX endpoint: the unit an application rank talks to.
type Endpoint struct {
	stack *Stack
	ID    uint8
	core  *host.Core
	// rng jitters the pull-retry backoff; its stream is derived from the
	// stack's and never consumed on clean (retry-free) runs.
	rng *sim.RNG

	// channels holds the channel to each remote endpoint, indexed by the
	// remote node (wire.MAC.NodeIndex) and then its endpoint id; nil where
	// none is open yet.
	channels  [][]*channel
	nextMsgID uint32

	// Event ring from driver to library.
	ring         sim.Queue[*event]
	lastWriter   int
	pickupActive bool

	// Library-level matching.
	posted     sim.Queue[*RecvHandle]
	unexpected sim.Queue[*unexpMsg]

	// Record free lists and once-bound callbacks for the hot paths.
	events        sim.FreeList[event]
	ops           sim.FreeList[sendOp]
	applyFn       func(any)
	popOneFn      func(any)
	matchOrPostFn func(any)
	smallFn       func(any)
	mediumFn      func(any)
	largeFn       func(any)
	shmFn         func(any)
	pullRetryFn   func(any)
}

func newEndpoint(s *Stack, id uint8, core *host.Core) *Endpoint {
	e := &Endpoint{
		stack:      s,
		ID:         id,
		core:       core,
		rng:        s.rng.Derive(0xE9D0<<40 | uint64(id)),
		lastWriter: -1,
	}
	e.applyFn = func(x any) {
		ev := x.(*event)
		e.applyEvent(ev)
		e.events.Put(ev)
		e.popOne()
	}
	e.popOneFn = func(any) { e.popOne() }
	e.matchOrPostFn = func(x any) { e.matchOrPost(x.(*RecvHandle)) }
	e.smallFn = func(x any) { e.smallPost(x.(*sendOp)) }
	e.mediumFn = func(x any) { e.mediumPost(x.(*sendOp)) }
	e.largeFn = func(x any) { e.largePost(x.(*sendOp)) }
	e.shmFn = func(x any) { e.shmPost(x.(*sendOp)) }
	e.pullRetryFn = func(x any) { e.pullRetry(x.(*pullBlock)) }
	return e
}

// Addr returns this endpoint's fabric address.
func (e *Endpoint) Addr() Addr { return Addr{MAC: e.stack.MAC(), EP: e.ID} }

// Core returns the core the owning rank is pinned to.
func (e *Endpoint) Core() *host.Core { return e.core }

// channelFor returns the channel to a, opening it on first use.
//
//omxlint:hotpath
func (e *Endpoint) channelFor(a Addr) *channel {
	if n := a.MAC.NodeIndex(); n < len(e.channels) {
		if row := e.channels[n]; int(a.EP) < len(row) && row[a.EP] != nil {
			return row[a.EP]
		}
	}
	return e.openChannel(a)
}

// openChannel is channelFor's cold path: it grows the channel table to
// hold a and creates the channel. a must be a node address: its node index
// is its row, so any other MAC would alias a node's channels.
func (e *Endpoint) openChannel(a Addr) *channel {
	n := a.MAC.NodeIndex()
	if a.MAC != wire.NodeMAC(n) {
		panic(fmt.Sprintf("omx: %s is not a node address", a))
	}
	if n >= len(e.channels) {
		e.channels = append(e.channels, make([][]*channel, n+1-len(e.channels))...)
	}
	row := e.channels[n]
	if int(a.EP) >= len(row) {
		row = append(row, make([]*channel, int(a.EP)+1-len(row))...)
		e.channels[n] = row
	}
	c := newChannel(e, a)
	row[a.EP] = c
	return c
}

// Isend posts a non-blocking send. data may be nil for size-only
// simulation. onDone (optional) fires in engine context at completion.
func (e *Endpoint) Isend(dst Addr, match uint64, data []byte, size int, onDone func()) *SendHandle {
	if data != nil {
		size = len(data)
	}
	h := &SendHandle{Size: size, onDone: onDone}
	p := e.stack.p

	if local := e.stack.localEndpoint(dst); local != nil {
		e.shmSend(local, match, data, size, h)
		return h
	}

	switch {
	case size <= p.Proto.SmallMax:
		e.sendSmall(dst, match, data, size, h)
	case size <= p.Proto.MediumMax:
		e.sendMedium(dst, match, data, size, h)
	default:
		e.sendLarge(dst, match, data, size, h)
	}
	return h
}

// Irecv posts a non-blocking receive. buf may be nil (size-only); cap is
// the logical buffer size in that case.
func (e *Endpoint) Irecv(match, mask uint64, buf []byte, capacity int, onDone func(*RecvHandle)) *RecvHandle {
	if buf != nil {
		capacity = len(buf)
	}
	rh := &RecvHandle{Match: match, Mask: mask, Buf: buf, Cap: capacity, onDone: onDone}
	p := e.stack.p
	cost := p.Lib.RecvPost + p.Lib.Match
	e.core.SubmitUserArg(cost, e.matchOrPostFn, rh)
	return rh
}

// matchOrPost tries the unexpected queue, then appends to the posted queue.
func (e *Endpoint) matchOrPost(rh *RecvHandle) {
	for i := 0; i < e.unexpected.Len(); i++ {
		if !rh.matches(e.unexpected.At(i).match) {
			continue
		}
		u := e.unexpected.RemoveAt(i)
		switch u.kind {
		case evEager:
			// Copy out of the unexpected buffer in user context.
			cost := e.stack.p.Lib.CopyTime(min(u.size, rh.Cap)) + e.stack.p.Lib.PerMessage
			e.core.SubmitUser(cost, func() {
				deliverEager(rh, u.src, u.match, u.data, u.size)
			})
		case evRendezvous:
			e.startPull(u.src, u.msgID, u.size, u.match, rh)
		}
		return
	}
	e.posted.PushBack(rh)
}

func deliverEager(rh *RecvHandle, src Addr, match uint64, data []byte, size int) {
	rh.Src = src
	rh.MatchV = match
	rh.Len = size
	if rh.Len > rh.Cap {
		rh.Len = rh.Cap // truncation
	}
	if rh.Buf != nil && data != nil {
		copy(rh.Buf, data[:min(len(data), len(rh.Buf))])
	}
	rh.complete()
}

// ---- send paths (user context) ----

// completeSendFn is the NIC-handoff callback of eager single-packet sends.
func completeSendFn(x any) { x.(*SendHandle).complete() }

func (e *Endpoint) sendSmall(dst Addr, match uint64, data []byte, size int, h *SendHandle) {
	p := e.stack.p
	cost := p.Lib.SendPost + p.Driver.TxPacket + e.stack.hst.P.CopyTime(size)
	op := e.ops.Get()
	op.dst, op.match, op.data, op.size, op.h = dst, match, data, size, h
	e.core.SubmitUserArg(cost, e.smallFn, op)
}

// smallPost runs at the send-post cost's completion: build and queue the
// single eager packet.
func (e *Endpoint) smallPost(op *sendOp) {
	dst, match, data, size, h := op.dst, op.match, op.data, op.size, op.h
	e.ops.Put(op)
	typ := wire.TypeSmall
	if size <= 32 {
		typ = wire.TypeTiny
	}
	hd := wire.Header{
		Type: typ, SrcEP: e.ID, DstEP: dst.EP,
		Match: match, MsgID: e.allocMsgID(), Aux: uint32(size),
		FragCount: 1,
	}
	if e.stack.Mark.Small {
		hd.Flags |= wire.FlagLatencySensitive
	}
	f := e.stack.newFrame(e.stack.MAC(), dst.MAC, hd, cloneData(data), size)
	e.stack.Stats.SmallSent++
	e.channelFor(dst).send(f, completeSendFn, h)
}

func (e *Endpoint) sendMedium(dst Addr, match uint64, data []byte, size int, h *SendHandle) {
	p := e.stack.p
	fragPayload := e.stack.eagerFragPayload()
	frags := (size + fragPayload - 1) / fragPayload
	if frags == 0 {
		frags = 1
	}
	// The sender copies medium data into the driver's send ring: per-frag
	// driver work plus the kernel copy, all in user (syscall) context.
	cost := p.Lib.SendPost + sim.Time(frags)*p.Driver.TxPacket + e.stack.hst.P.CopyTime(size)
	op := e.ops.Get()
	op.dst, op.match, op.data, op.size, op.frags, op.h = dst, match, data, size, frags, h
	e.core.SubmitUserArg(cost, e.mediumFn, op)
}

// mediumPost claims a medium send slot or queues the message behind one.
func (e *Endpoint) mediumPost(op *sendOp) {
	ch := e.channelFor(op.dst)
	op.ch = ch
	if ch.mediumActive >= e.stack.p.Proto.MediumInflight {
		// The endpoint's send ring has no free medium slot: queue.
		ch.mediumPending.PushBack(op)
		return
	}
	ch.mediumActive++
	e.emitMediumFrags(op)
}

// mediumLastFn fires when the last fragment reaches the NIC: the message is
// complete (buffered semantics) and its send slot is released.
func mediumLastFn(x any) {
	op := x.(*sendOp)
	e, ch, h := op.ch.ep, op.ch, op.h
	e.ops.Put(op)
	h.complete()
	ch.mediumDone()
}

// emitMediumFrags owns one medium send slot: it paces the fragments onto
// the channel and releases the slot when the last fragment reaches the NIC.
// It consumes op (recycled by mediumLastFn).
func (e *Endpoint) emitMediumFrags(op *sendOp) {
	p := e.stack.p
	ch, dst, match, data, size, frags := op.ch, op.dst, op.match, op.data, op.size, op.frags
	fragPayload := e.stack.eagerFragPayload()
	{
		msgID := e.allocMsgID()
		markIdx := frags - 1 - e.stack.Mark.MediumMarkShift
		if markIdx < 0 {
			markIdx = 0
		}
		e.stack.Stats.MediumSent++
		// Fragments flow through the message's send-ring slots, paced
		// ~MediumFragGap apart (ring handling and doorbells); concurrent
		// messages pace independently.
		now := e.stack.eng.Now()
		release := now
		for i := 0; i < frags; i++ {
			off := i * fragPayload
			plen := min(fragPayload, size-off)
			hd := wire.Header{
				Type: wire.TypeMediumFrag, SrcEP: e.ID, DstEP: dst.EP,
				Match: match, MsgID: msgID, Aux: uint32(size),
				FragIndex: uint16(i), FragCount: uint16(frags),
			}
			if i == frags-1 {
				hd.Flags |= wire.FlagLastFragment
			}
			if e.stack.Mark.MediumLast && i == markIdx {
				hd.Flags |= wire.FlagLatencySensitive
			}
			var fd []byte
			if data != nil {
				fd = data[off : off+plen]
			}
			f := e.stack.newFrame(e.stack.MAC(), dst.MAC, hd, fd, plen)
			var onTx func(any)
			var onTxArg any
			if i == frags-1 {
				onTx, onTxArg = mediumLastFn, op
			}
			if release <= now {
				ch.send(f, onTx, onTxArg)
			} else {
				e.stack.schedulePaced(release, ch, f, onTx, onTxArg)
			}
			gap := p.Driver.MediumFragGap
			if d := p.Driver.MediumFragGapJitterDiv; d > 0 && gap > 0 {
				gap = e.stack.rng.Jitter(gap, gap/sim.Time(d))
			}
			release += gap
		}
	}
}

func (e *Endpoint) sendLarge(dst Addr, match uint64, data []byte, size int, h *SendHandle) {
	p := e.stack.p
	cost := p.Lib.SendPost + p.Driver.TxPacket
	op := e.ops.Get()
	op.dst, op.match, op.data, op.size, op.h = dst, match, data, size, h
	e.core.SubmitUserArg(cost, e.largeFn, op)
}

// largePost announces a large message with a rendezvous.
func (e *Endpoint) largePost(op *sendOp) {
	dst, match, data, size, h := op.dst, op.match, op.data, op.size, op.h
	e.ops.Put(op)
	c := e.channelFor(dst)
	if c.failed != nil {
		// The channel already gave up: the Notify this send would wait
		// for can never arrive.
		h.fail(c.failed)
		return
	}
	msgID := e.allocMsgID()
	c.large = append(c.large, &largeSend{msgID: msgID, data: data, size: size, handle: h})
	hd := wire.Header{
		Type: wire.TypeRendezvous, SrcEP: e.ID, DstEP: dst.EP,
		Match: match, MsgID: msgID, Aux: uint32(size),
	}
	if e.stack.Mark.Rendezvous {
		hd.Flags |= wire.FlagLatencySensitive
	}
	e.stack.Stats.LargeSent++
	c.send(e.stack.newFrame(e.stack.MAC(), dst.MAC, hd, nil, 0), nil, nil)
}

func (e *Endpoint) shmSend(dst *Endpoint, match uint64, data []byte, size int, h *SendHandle) {
	p := e.stack.p
	cost := p.Lib.SendPost + p.Lib.CopyTime(size) + p.Lib.ShmLatency
	op := e.ops.Get()
	op.local, op.match, op.data, op.size, op.h = dst, match, data, size, h
	e.core.SubmitUserArg(cost, e.shmFn, op)
}

// shmPost delivers an intra-node message straight into the peer's ring.
func (e *Endpoint) shmPost(op *sendOp) {
	dst, match, data, size, h := op.local, op.match, op.data, op.size, op.h
	e.ops.Put(op)
	e.stack.Stats.ShmSent++
	h.complete()
	ev := dst.events.Get()
	ev.kind = evEager
	ev.src = e.Addr()
	ev.match = match
	ev.data = cloneData(data)
	ev.size = size
	ev.writerCore = e.core.ID
	dst.postEvent(ev)
}

func (e *Endpoint) allocMsgID() uint32 {
	e.nextMsgID++
	return e.nextMsgID
}

func cloneData(d []byte) []byte {
	if d == nil {
		return nil
	}
	return append([]byte(nil), d...)
}

// ---- event ring & pickup (library side) ----

// postEvent appends an event to the endpoint's shared ring and kicks the
// library pickup chain. Returns false when the ring is full. The ring takes
// ownership of ev; it is recycled once the library applies it.
func (e *Endpoint) postEvent(ev *event) bool {
	if e.ring.Len() >= e.stack.p.Proto.EventRingEntries {
		e.stack.Stats.EventRingFull++
		e.events.Put(ev)
		return false
	}
	e.ring.PushBack(ev)
	e.kickPickup()
	return true
}

func (e *Endpoint) ringHasSpace() bool {
	return e.ring.Len() < e.stack.p.Proto.EventRingEntries
}

func (e *Endpoint) kickPickup() {
	if e.pickupActive || e.ring.Len() == 0 {
		return
	}
	e.pickupActive = true
	cost := e.stack.p.Lib.Progress
	if e.ring.Len() > 0 && e.ring.At(0).writerCore != e.core.ID {
		// The event ring's cache lines were last written by another core.
		cost += e.stack.p.Host.CacheBounce
	}
	e.core.SubmitUserArg(cost, e.popOneFn, nil)
}

//omxlint:hotpath
func (e *Endpoint) popOne() {
	if e.ring.Len() == 0 {
		e.pickupActive = false
		return
	}
	ev := e.ring.PopFront()

	p := e.stack.p
	cost := p.Lib.EventPop
	switch ev.kind {
	case evEager:
		cost += p.Lib.Match
		if rh := e.peekMatch(ev.match); rh != nil {
			cost += p.Lib.CopyTime(min(ev.size, rh.Cap)) + p.Lib.PerMessage
		} else {
			cost += p.Lib.CopyTime(ev.size) // unexpected buffering copy
		}
	case evMediumFrag:
		// Library reassembly: copy the fragment out of the ring; the
		// final fragment additionally matches and completes the message.
		cost += p.Lib.FragEvent + p.Lib.CopyTime(len(ev.data))
		if ev.data == nil {
			cost += p.Lib.CopyTime(fragLenFor(e, ev))
		}
		if r := ev.ch.reasmFor(ev.msgID); r != nil {
			if r.received+1 == r.frags {
				cost += p.Lib.Match + p.Lib.PerMessage
			}
		} else if ev.fragCount == 1 {
			cost += p.Lib.Match + p.Lib.PerMessage
		}
	case evRendezvous:
		cost += p.Lib.Match
		if e.peekMatch(ev.match) != nil {
			cost += sim.Time(p.Proto.PullParallel) * (p.Driver.PullRequestCost + p.Driver.TxPacket)
		}
	case evPullDone, evNotifyRecvd:
		cost += p.Lib.PerMessage
	}
	e.core.SubmitUserArg(cost, e.applyFn, ev)
}

// peekMatch returns the first posted receive matching m without removing it.
//
//omxlint:hotpath
func (e *Endpoint) peekMatch(m uint64) *RecvHandle {
	for i := 0; i < e.posted.Len(); i++ {
		if rh := e.posted.At(i); rh.matches(m) {
			return rh
		}
	}
	return nil
}

// takeMatch removes and returns the first posted receive matching m.
//
//omxlint:hotpath
func (e *Endpoint) takeMatch(m uint64) *RecvHandle {
	for i := 0; i < e.posted.Len(); i++ {
		if e.posted.At(i).matches(m) {
			return e.posted.RemoveAt(i)
		}
	}
	return nil
}

func (e *Endpoint) applyEvent(ev *event) {
	if ev.ch != nil {
		// Library-clocked ack: consuming the event acknowledges its
		// sequenced packets.
		ev.ch.noteConsumed(ev.ackSeq)
	}
	switch ev.kind {
	case evEager:
		if rh := e.takeMatch(ev.match); rh != nil {
			deliverEager(rh, ev.src, ev.match, ev.data, ev.size)
			return
		}
		e.stack.Stats.UnexpectedMsgs++
		e.unexpected.PushBack(&unexpMsg{
			kind: evEager, src: ev.src, match: ev.match, data: ev.data, size: ev.size,
		})
	case evMediumFrag:
		e.applyMediumFrag(ev)
	case evRendezvous:
		if rh := e.takeMatch(ev.match); rh != nil {
			e.startPull(ev.src, ev.msgID, ev.size, ev.match, rh)
			return
		}
		e.stack.Stats.UnexpectedMsgs++
		e.unexpected.PushBack(&unexpMsg{
			kind: evRendezvous, src: ev.src, match: ev.match, size: ev.size, msgID: ev.msgID,
		})
	case evPullDone:
		ev.rh.complete()
	case evNotifyRecvd:
		if ls := ev.ch.largeFor(ev.msgID); ls != nil {
			ev.ch.large = deleteElem(ev.ch.large, ls)
			ls.handle.complete()
		}
	}
}

// fragLenFor computes the payload length of a medium fragment in size-only
// mode (no data attached).
func fragLenFor(e *Endpoint, ev *event) int {
	fragPayload := e.stack.eagerFragPayload()
	off := ev.fragIdx * fragPayload
	n := ev.size - off
	if n > fragPayload {
		n = fragPayload
	}
	if n < 0 {
		n = 0
	}
	return n
}

// applyMediumFrag reassembles one medium fragment in the library and
// delivers the message when complete.
func (e *Endpoint) applyMediumFrag(ev *event) {
	c := ev.ch
	r := c.reasmFor(ev.msgID)
	if r == nil {
		r = &mediumReasm{
			msgID: ev.msgID, match: ev.match, total: ev.size,
			frags: ev.fragCount, seen: make([]bool, ev.fragCount),
			src: ev.src,
		}
		if ev.data != nil {
			r.data = make([]byte, r.total)
		}
		c.reasm = append(c.reasm, r)
	}
	if ev.fragIdx >= r.frags || r.seen[ev.fragIdx] {
		return // stray or duplicate fragment
	}
	r.seen[ev.fragIdx] = true
	r.received++
	if r.data != nil && ev.data != nil {
		off := ev.fragIdx * e.stack.eagerFragPayload()
		copy(r.data[off:], ev.data)
	}
	if r.received != r.frags {
		return
	}
	c.reasm = deleteElem(c.reasm, r)
	e.stack.Stats.MediumRecvd++
	if rh := e.takeMatch(r.match); rh != nil {
		deliverEager(rh, r.src, r.match, r.data, r.total)
		return
	}
	e.stack.Stats.UnexpectedMsgs++
	e.unexpected.PushBack(&unexpMsg{
		kind: evEager, src: r.src, match: r.match, data: r.data, size: r.total,
	})
}

// String describes the endpoint.
func (e *Endpoint) String() string {
	return fmt.Sprintf("endpoint(%s)", e.Addr())
}
