package omx

import (
	"openmxsim/internal/host"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// The receive handler is modelled in two phases so the IRQ-context cost can
// be charged before the protocol state changes: rxCost computes the
// per-packet processing cost (inspecting state only), and rxApply performs
// the state transition at the cost's completion. Packets within one NAPI
// poll are processed strictly in sequence, so peeking is race-free. The
// pull-reply state captured by rxCost is carried to rxApply (via the
// stack's pooled dispatch record) so both phases see the same transfer,
// exactly as the former cost/effect closure pair did.

// rxCost returns the IRQ-context processing cost of a packet and, for pull
// replies, the transfer state the cost was computed against.
//
//omxlint:hotpath
func (e *Endpoint) rxCost(f *wire.Frame, cold bool) (sim.Time, *pullState) {
	h := &f.Header
	p := e.stack.p
	base := p.Host.RxHandlerPacket

	switch h.Type {
	case wire.TypeAck:
		return base + p.Driver.AckCost, nil

	case wire.TypeTiny, wire.TypeSmall:
		return base + p.Driver.RxEager + e.stack.rxCopyTime(f.PayloadLen, cold) + p.Driver.EventWrite, nil

	case wire.TypeMediumFrag:
		// Touch the channel in the cost phase, as the effect will.
		src := Addr{MAC: f.Src, EP: h.SrcEP}
		e.channelFor(src)
		return base + p.Driver.RxEager + e.stack.rxCopyTime(f.PayloadLen, cold) + p.Driver.EventWrite, nil

	case wire.TypeRendezvous, wire.TypeNotify:
		return base + p.Driver.RxEager + p.Driver.EventWrite, nil

	case wire.TypePullRequest:
		// The sender's driver answers pull requests straight from the
		// receive handler: one block of replies per request.
		return base + p.Driver.RxPull + sim.Time(h.FragCount)*p.Driver.TxPacket, nil

	case wire.TypePullReply:
		ps := e.channelFor(Addr{MAC: f.Src, EP: h.SrcEP}).pullFor(h.MsgID)
		cost := base + p.Driver.RxPull + e.stack.pullCopyTime(f.PayloadLen, cold)
		frag := int(h.FragIndex)
		if ps != nil && !ps.done && frag < ps.frags && !ps.seen[frag] {
			b := &ps.blocks[frag/p.Proto.PullBlockFrags]
			if b.got+1 == ps.blockSize(b.idx) && ps.nextBlock < len(ps.blocks) {
				cost += p.Driver.PullRequestCost + p.Driver.TxPacket
			}
			if ps.received+1 == ps.frags {
				cost += p.Driver.EventWrite + p.Driver.TxPacket // notify
			}
		}
		return cost, ps

	default:
		return p.Host.RxDropPacket, nil
	}
}

// rxApply performs the protocol state transition for a packet whose receive
// cost has been charged. ps is the pull state captured by rxCost.
//
//omxlint:hotpath
func (e *Endpoint) rxApply(f *wire.Frame, core *host.Core, ps *pullState) {
	h := &f.Header
	src := Addr{MAC: f.Src, EP: h.SrcEP}

	switch h.Type {
	case wire.TypeAck:
		e.channelFor(src).onAck(h.Aux)

	case wire.TypeTiny, wire.TypeSmall:
		c := e.channelFor(src)
		c.lastRxCoreID = core.ID
		if !e.ringHasSpace() {
			// Do not ack: the sender will retransmit once the
			// application drains the ring.
			e.stack.Stats.EventRingFull++
			return
		}
		if !c.acceptSeq(h.Seq) {
			return
		}
		e.stack.Stats.SmallRecvd++
		ev := e.events.Get()
		ev.kind = evEager
		ev.src = src
		ev.match = h.Match
		ev.ch = c
		ev.ackSeq = c.recvNext
		ev.data = clonePayload(f)
		ev.size = int(h.Aux)
		ev.writerCore = core.ID
		e.postEvent(ev)

	case wire.TypeMediumFrag:
		// Each fragment is copied into the ring and delivered as its own
		// event; the library reassembles in user space, like Open-MX.
		c := e.channelFor(src)
		c.lastRxCoreID = core.ID
		if !e.ringHasSpace() {
			e.stack.Stats.EventRingFull++
			return
		}
		if !c.acceptSeq(h.Seq) {
			return
		}
		ev := e.events.Get()
		ev.kind = evMediumFrag
		ev.src = src
		ev.match = h.Match
		ev.ch = c
		ev.ackSeq = c.recvNext
		ev.data = clonePayload(f)
		ev.size = int(h.Aux)
		ev.msgID = h.MsgID
		ev.fragIdx = int(h.FragIndex)
		ev.fragCount = int(h.FragCount)
		ev.writerCore = core.ID
		e.postEvent(ev)

	case wire.TypeRendezvous:
		c := e.channelFor(src)
		c.lastRxCoreID = core.ID
		if !e.ringHasSpace() {
			e.stack.Stats.EventRingFull++
			return
		}
		if !c.acceptSeq(h.Seq) {
			return
		}
		ev := e.events.Get()
		ev.kind = evRendezvous
		ev.src = src
		ev.match = h.Match
		ev.ch = c
		ev.ackSeq = c.recvNext
		ev.size = int(h.Aux)
		ev.msgID = h.MsgID
		ev.writerCore = core.ID
		e.postEvent(ev)

	case wire.TypePullRequest:
		e.handlePullRequest(f)

	case wire.TypePullReply:
		e.handlePullReply(ps, f, core)

	case wire.TypeNotify:
		c := e.channelFor(src)
		c.lastRxCoreID = core.ID
		if !e.ringHasSpace() {
			e.stack.Stats.EventRingFull++
			return
		}
		if !c.acceptSeq(h.Seq) {
			return
		}
		ev := e.events.Get()
		ev.kind = evNotifyRecvd
		ev.src = src
		ev.msgID = h.MsgID
		ev.ch = c
		ev.ackSeq = c.recvNext
		ev.writerCore = core.ID
		e.postEvent(ev)

	default:
		e.stack.Stats.InvalidDropped++
	}
}

func clonePayload(f *wire.Frame) []byte {
	if f.Payload == nil {
		return nil
	}
	return append([]byte(nil), f.Payload...)
}
