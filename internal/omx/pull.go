package omx

import (
	"fmt"

	"openmxsim/internal/host"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
	"openmxsim/internal/wire"
)

// The large-message protocol (Fig. 3 of the paper): the sender announces
// with a Rendezvous; once a matching receive is posted, the receiver pulls
// the data with PullRequests of up to PullBlockFrags fragments each,
// keeping PullParallel requests in flight so the wire never drains; the
// final fragment triggers a Notify back to the sender.

// largeSend is the sender-side record of an announced large message. It
// is listed on the channel to the receiver until the receiver's Notify
// arrives.
type largeSend struct {
	msgID  uint32
	data   []byte
	size   int
	handle *SendHandle
}

// pullState is the receiver-side progress of one large transfer. It is
// listed on ch, the channel its rendezvous arrived on, until it finishes.
type pullState struct {
	ep        *Endpoint
	ch        *channel
	src       Addr
	msgID     uint32
	total     int
	match     uint64
	rh        *RecvHandle
	frags     int
	nextBlock int
	received  int
	seen      []bool
	blocks    []pullBlock
	done      bool
}

// pullBlock is the progress of one block of a pull. The records are made
// once, in startPull, and a block's record is the argument of its retry
// timer, so arming the timer allocates nothing. A pull holds one record per
// block for as long as it runs, so the counters are int32: that keeps a
// record at 32 bytes.
type pullBlock struct {
	ps    *pullState
	idx   int
	timer *sim.Event // the pending retry, nil when none
	got   int32      // fragments of the block received
	// tries counts consecutive retries (reset whenever a fragment of the
	// block arrives); it drives the backed-off retry delay and the
	// MaxResends give-up.
	tries int32
}

func (ps *pullState) blockSize(b int) int32 {
	per := ps.ep.stack.p.Proto.PullBlockFrags
	n := ps.frags - b*per
	if n > per {
		n = per
	}
	return int32(n)
}

// startPull begins pulling a matched rendezvous. Runs in user context (the
// library asked the driver to start the pull); subsequent block requests
// are issued by the driver from the receive handler.
func (e *Endpoint) startPull(src Addr, msgID uint32, total int, match uint64, rh *RecvHandle) {
	p := e.stack.p
	replyPayload := p.Proto.PullReplyPayload
	frags := (total + replyPayload - 1) / replyPayload
	if frags == 0 {
		frags = 1
	}
	if frags > 0xFFFF {
		panic(fmt.Sprintf("omx: %d-byte message needs %d pull fragments (wire limit 65535)", total, frags))
	}
	nblocks := (frags + p.Proto.PullBlockFrags - 1) / p.Proto.PullBlockFrags

	rh.Src = src
	rh.MatchV = match
	rh.Len = total
	if rh.Len > rh.Cap {
		rh.Len = rh.Cap
	}

	ch := e.channelFor(src)
	ps := &pullState{
		ep: e, ch: ch, src: src, msgID: msgID, total: total, match: match, rh: rh,
		frags:  frags,
		seen:   make([]bool, frags),
		blocks: make([]pullBlock, nblocks),
	}
	for b := range ps.blocks {
		ps.blocks[b] = pullBlock{ps: ps, idx: b}
	}
	ch.pulls = append(ch.pulls, ps)

	first := min(p.Proto.PullParallel, nblocks)
	for b := 0; b < first; b++ {
		e.issuePullRequest(&ps.blocks[b])
	}
	ps.nextBlock = first
}

// issuePullRequest sends the request for one block and arms its retry timer.
func (e *Endpoint) issuePullRequest(b *pullBlock) {
	p := e.stack.p
	ps := b.ps
	hd := wire.Header{
		Type: wire.TypePullRequest, SrcEP: e.ID, DstEP: ps.src.EP,
		MsgID: ps.msgID, Aux: uint32(ps.total),
		FragIndex: uint16(b.idx), FragCount: uint16(ps.blockSize(b.idx)),
	}
	if e.stack.Mark.PullRequest {
		hd.Flags |= wire.FlagLatencySensitive
	}
	e.stack.Stats.PullRequestsSent++
	e.stack.sendFrame(e.stack.newFrame(e.stack.MAC(), ps.src.MAC, hd, nil, 0))

	if b.timer != nil {
		b.timer.Cancel()
	}
	d := p.Proto.ResendTimeout
	if b.tries > 0 {
		d = backoffDelay(&p.Proto, e.rng, int(b.tries))
		e.stack.Stats.Backoffs++
	}
	b.timer = e.stack.eng.AfterArg(d, e.pullRetryFn, b)
}

// pullRetry runs when block b's retry timer expires: an incomplete block
// is requested again, or the pull is given up once the block has used
// its MaxResends retries.
func (e *Endpoint) pullRetry(b *pullBlock) {
	b.timer = nil
	ps := b.ps
	if ps.done || b.got == ps.blockSize(b.idx) {
		return
	}
	if mr := e.stack.p.Proto.MaxResends; mr > 0 && int(b.tries) >= mr {
		e.giveUpPull(ps)
		return
	}
	b.tries++
	e.stack.Stats.PullBlockRetries++
	e.issuePullRequest(b)
}

// finish ends the pull: every block's retry timer is cancelled and the
// pull leaves its channel, so later replies find no transfer.
func (ps *pullState) finish() {
	ps.done = true
	for i := range ps.blocks {
		if b := &ps.blocks[i]; b.timer != nil {
			b.timer.Cancel()
			b.timer = nil
		}
	}
	ps.ch.pulls = deleteElem(ps.ch.pulls, ps)
}

// giveUpPull abandons a pull whose block retries exhausted the budget: all
// retry timers are cancelled, the transfer is dropped, and the posted
// receive completes with ErrGiveUp.
func (e *Endpoint) giveUpPull(ps *pullState) {
	if ps.done {
		return
	}
	ps.finish()
	e.stack.Stats.GiveUps++
	e.stack.tr.Event(e.stack.eng.Now(), trace.EvGiveUp, int64(e.stack.Stats.GiveUps))
	ps.rh.fail(ErrGiveUp)
}

// handlePullRequest runs on the data holder: emit one block of replies.
// Reply generation cost was charged by the rx dispatch; the NIC serializes
// the actual transmissions.
func (e *Endpoint) handlePullRequest(f *wire.Frame) {
	h := &f.Header
	src := Addr{MAC: f.Src, EP: h.SrcEP}
	ls := e.channelFor(src).largeFor(h.MsgID)
	if ls == nil {
		return // stale or duplicate request for a finished transfer
	}
	p := e.stack.p
	replyPayload := p.Proto.PullReplyPayload
	totalFrags := (ls.size + replyPayload - 1) / replyPayload
	if totalFrags == 0 {
		totalFrags = 1
	}
	block := int(h.FragIndex)
	start := block * p.Proto.PullBlockFrags
	n := totalFrags - start
	if n > p.Proto.PullBlockFrags {
		n = p.Proto.PullBlockFrags
	}
	if n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		frag := start + i
		off := frag * replyPayload
		plen := ls.size - off
		if plen > replyPayload {
			plen = replyPayload
		}
		rh := wire.Header{
			Type: wire.TypePullReply, SrcEP: e.ID, DstEP: src.EP,
			MsgID: ls.msgID, Aux: uint32(off), FragIndex: uint16(frag),
			FragCount: uint16(totalFrags),
		}
		if i == n-1 {
			rh.Flags |= wire.FlagLastFragment
			if e.stack.Mark.PullLastReply {
				rh.Flags |= wire.FlagLatencySensitive
			}
		}
		var data []byte
		if ls.data != nil {
			data = ls.data[off : off+plen]
		}
		e.stack.Stats.PullRepliesSent++
		e.stack.sendFrame(e.stack.newFrame(e.stack.MAC(), src.MAC, rh, data, plen))
	}
}

// handlePullReply runs on the puller for each arriving fragment.
//
//omxlint:hotpath
func (e *Endpoint) handlePullReply(ps *pullState, f *wire.Frame, core *host.Core) {
	if ps == nil || ps.done {
		return
	}
	h := &f.Header
	frag := int(h.FragIndex)
	if frag >= ps.frags || ps.seen[frag] {
		e.stack.Stats.Duplicates++
		return
	}
	ps.seen[frag] = true
	ps.received++
	b := &ps.blocks[frag/e.stack.p.Proto.PullBlockFrags]
	b.got++
	b.tries = 0 // block progress: the path works, backoff resets

	// Deposit the fragment into the user buffer (kernel copy, cost already
	// charged by the rx dispatch).
	if ps.rh.Buf != nil && f.Payload != nil {
		off := int(h.Aux)
		if off < len(ps.rh.Buf) {
			copy(ps.rh.Buf[off:], f.Payload)
		}
	}

	if b.got == ps.blockSize(b.idx) {
		if b.timer != nil {
			b.timer.Cancel()
			b.timer = nil
		}
		if ps.nextBlock < len(ps.blocks) {
			// Pipeline the next request straight from the handler.
			e.issuePullRequest(&ps.blocks[ps.nextBlock])
			ps.nextBlock++
		}
	}

	if ps.received == ps.frags {
		ps.finish()
		e.stack.Stats.LargeRecvd++

		// Notify the sender (sequenced, marked per policy).
		nh := wire.Header{
			Type: wire.TypeNotify, SrcEP: e.ID, DstEP: ps.src.EP,
			MsgID: ps.msgID,
		}
		if e.stack.Mark.Notify {
			nh.Flags |= wire.FlagLatencySensitive
		}
		ps.ch.send(e.stack.newFrame(e.stack.MAC(), ps.src.MAC, nh, nil, 0), nil, nil)

		// Tell the application.
		ev := e.events.Get()
		ev.kind = evPullDone
		ev.src = ps.src
		ev.rh = ps.rh
		ev.writerCore = core.ID
		e.postEvent(ev)
	}
}
