package omx

import (
	"slices"
	"sort"
)

// Close tears down the endpoint. Every outstanding timer is cancelled —
// in particular the per-block pull retry timers, which previously kept
// firing (and re-requesting blocks) against a closed endpoint — retained
// frames are released, and outstanding operations complete with ErrClosed:
// receiver-side pulls, sender-side large messages, and queued-but-unsent
// packets. The endpoint is removed from the stack, so later frames for its
// ID are counted as NoEndpointDrop; new Isend/Irecv calls fail
// immediately. Close is idempotent, and all teardown completions run in
// deterministic (address, msgID) order regardless of map iteration.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true

	// Receiver-side pulls.
	pkeys := make([]pullKey, 0, len(e.pulls))
	for k := range e.pulls {
		pkeys = append(pkeys, k)
	}
	sort.SliceStable(pkeys, func(i, j int) bool { return lessPullKey(pkeys[i], pkeys[j]) })
	for _, k := range pkeys {
		ps := e.pulls[k]
		ps.done = true
		//omxlint:allow maprange: timer cancellation is idempotent and per-timer; order cannot matter
		for _, t := range ps.timers {
			t.Cancel()
		}
		ps.timers = nil
		delete(e.pulls, k)
		ps.rh.fail(ErrClosed)
	}

	// Sender-side announced large messages.
	ids := make([]uint32, 0, len(e.pullSrc))
	for id := range e.pullSrc {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ls := e.pullSrc[id]
		delete(e.pullSrc, id)
		ls.handle.fail(ErrClosed)
	}

	// Channels: resend/ack/connect timers, retained and queued packets.
	addrs := make([]Addr, 0, len(e.channels))
	for a := range e.channels {
		addrs = append(addrs, a)
	}
	sort.SliceStable(addrs, func(i, j int) bool { return lessAddr(addrs[i], addrs[j]) })
	for _, a := range addrs {
		c := e.channels[a]
		c.teardown(ErrClosed)
		if c.ackTimer != nil {
			c.ackTimer.Cancel()
			c.ackTimer = nil
		}
	}

	// Posted receives that can no longer match anything.
	for e.posted.Len() > 0 {
		e.posted.PopFront().fail(ErrClosed)
	}

	delete(e.stack.endpoints, e.ID)
}

func lessAddr(a, b Addr) bool {
	for i := range a.MAC {
		if a.MAC[i] != b.MAC[i] {
			return a.MAC[i] < b.MAC[i]
		}
	}
	return a.EP < b.EP
}

func lessPullKey(a, b pullKey) bool {
	if a.src != b.src {
		return lessAddr(a.src, b.src)
	}
	return a.msgID < b.msgID
}
