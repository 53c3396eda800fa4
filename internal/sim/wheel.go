package sim

import "math/bits"

// The timing wheel is a 3-level hierarchical calendar queue sized to the
// simulation's dominant horizons:
//
//	level 0: 4096 slots x 64 ns     — horizon ~262 µs (wire/NIC events, coalescing timers)
//	level 1: 1024 slots x ~262 µs   — horizon ~268 ms (resend timers, app phases)
//	level 2: 1024 slots x ~268 ms   — horizon ~275 s  (long runs)
//
// The level-0 span is chosen from the measured push-delta distribution of
// the repository's workloads: most events are scheduled a few ns to a few
// µs ahead of the clock (wire, DMA, IRQ and protocol steps), and the 15–75
// µs coalescing delays the paper sweeps come next. A 262 µs bottom level
// files 93–96% of all events in O(1) with no cascade at all; a span of a
// few µs would send every coalescing timer, and every wire event that
// crosses an aligned boundary of that span, through level 1. The upper
// levels carry far fewer events and stay narrow to keep the wheel's
// footprint — which the garbage collector scans, since slots anchor event
// pointers — small. Events beyond the level-2 horizon wait in a 4-ary
// overflow heap and are demoted into the wheels when the cursor's level-2
// epoch advances.
//
// A level-0 slot can be wider than 1 ns because every level-0 insertion
// is (at, pri, seq) ordered (invariant 2 below), so the slot width does
// not affect pop order: it trades cascades, which a narrow level 0 causes,
// for longer slot lists. At 64 ns the densest workload, 63 lockstep
// senders into one switch port, puts about 25 events in a slot, and its
// out-of-order arrivals are placed by walking back from the slot's tail,
// near which they almost always belong.
//
// # Geometry
//
// All levels are powers of two, so placement is pure bit arithmetic. A
// timestamp's level-l slot index is (at >> shift_l) & mask_l and its
// level-l "epoch" is at >> shift_(l+1), with shifts 6/18/28 and a top
// shift of 38. Within one level-(l+1) epoch the level-l slot indexes are
// monotone in time (they span their full range exactly once, in order), so
// a forward bitmap scan visits slots in timestamp order and the wheel
// never wraps within an epoch — there is no modular aliasing to resolve.
//
// # Determinism
//
// popLE must return live events in exactly the (at, pri, seq) order that
// before defines. That follows from three invariants:
//
//  1. Placement is monotone: an event is inserted at the lowest level whose
//     current epoch (relative to the cursor) contains its timestamp, and
//     cascades only move events downward when the cursor reaches their
//     epoch. Within the cursor's level-0 epoch, slot indexes are therefore
//     ordered by timestamp range: every event in an earlier slot precedes
//     every event in a later one, and a level-0 slot holds nothing from
//     another epoch (cancelled leftovers are trimmed before the cursor
//     leaves a slot).
//  2. Level-0 slots are explicitly ordered: every insertion into level 0 —
//     direct push, cascade, overflow drain — is an (at, pri, seq) ordered
//     insert (put: an empty slot, an append after the tail, or else
//     evList.insertOrdered), so each slot list is sorted and its head is
//     the slot minimum regardless of arrival order. A slot spans 64
//     timestamps, so this is what orders events within it; together with
//     invariant 1 the first live head in slot order is the queue minimum.
//     Arrivals mostly come in order (pushes carry monotonically increasing
//     seq, most events of a slot are scheduled in time order, cascades
//     preserve list order and the overflow heap drains in order), so the
//     insert is usually an O(1) append.
//  3. The cursor never outruns the commit point: it advances to a popped
//     event's timestamp, or to a RunUntil horizon t that the engine then
//     adopts as now, and cascades only touch slots that start at or before
//     that commit. The engine never schedules before now, so a push always
//     lands relative to a cursor that is <= every live timestamp; a search
//     that comes up empty (queue drained, or only cancelled events left)
//     may release cancelled events but moves no live event and leaves the
//     cursor untouched. The cursor may stop inside a slot: events of that
//     slot that precede it have all been popped, and later pushes into
//     the slot are ordered in by invariant 2.
//
// # Cost model
//
// push is O(1) for in-order arrivals: for a level-0 push, nearly every
// one, an epoch compare, then into an empty slot a head store and two
// bitmap ORs, or an append after the slot's tail. An arrival that precedes
// events already in its slot walks back from the tail over the events it
// precedes, at most the slot's occupancy. popLE is amortized O(1):
// same-slot bursts drain from the cursor's slot without rescanning (the
// slot's bit stays set while events remain — this is what batches dispatch
// in Engine.Step and RunUntil), gaps are crossed with a two-level bitmap
// (one summary word of non-empty 64-slot groups per level, then one
// trailing-zeros scan), a sparse slot pops directly from its level without
// cascading (takeSingle), and each event otherwise cascades at most twice
// on its way down. The overflow heap only sees events more than ~275
// virtual seconds ahead, which no workload in the repository does.
//
// The slot lists and bitmaps are fixed-size arrays held by value in the
// Engine, so each engine is one allocation of 57,344 B (50,808 B rounded
// up to 7 pages), and the level-0 paths index them at constant offsets
// from the wheel with no slice header to load. A slot is one word, its
// list's head (see evList), because every page counts: building an
// engine zeroes all of it, and each page the runtime had returned to the
// OS faults back in (TestEngineFootprint).
type Wheel struct {
	// cur is the committed cursor: every live event with at < cur has been
	// popped. It only advances when popLE returns an event or a bounded
	// search proves nothing remains at or before its horizon.
	cur Time
	n   int
	eng *Engine
	// sum[l] bit w mirrors "bits[l][w] != 0": the two-level bitmap that
	// finds the next populated slot in O(1). Levels 1 and 2 use only the
	// first l1Slots/64 words of theirs.
	sum  [wheelLevels]uint64
	bits [wheelLevels][l0Slots / 64]uint64
	// l0 holds level 0's slots, up levels 1 and 2, which have l1Slots each.
	l0   [l0Slots]evList
	up   [wheelLevels - 1][l1Slots]evList
	over heap4
}

const (
	wheelLevels = 3

	l0Bits  = 12
	l1Bits  = 10
	l2Bits  = l1Bits
	l0Slots = 1 << l0Bits
	l1Slots = 1 << l1Bits
	l2Slots = 1 << l2Bits
	l0Mask  = l0Slots - 1
	l1Mask  = l1Slots - 1
	l2Mask  = l2Slots - 1
	// lNShift positions a level's slot index within a timestamp: a
	// level-0 slot is 1<<l0Shift ns wide. topShift is the level-2 epoch
	// boundary, past which events overflow to the heap.
	l0Shift  = 6
	l1Shift  = l0Shift + l0Bits
	l2Shift  = l1Shift + l1Bits
	topShift = l2Shift + l2Bits

	// maxHorizon disables the horizon guards: no simulated timestamp
	// reaches it (it is ~146 years of virtual nanoseconds).
	maxHorizon = Time(1) << 62
)

// evList is an intrusive list of events threaded through Event.next, so
// slot membership costs no allocation and no slice growth. A slot holds
// only the list's head, and the head's prev is the tail: one word per
// slot keeps the wheel's arrays at 48 KB, and the tail is one load away.
// Level-0 lists also keep every other event's prev, for insertOrdered's
// backward walk. Higher levels only append, drain and unlink forward, and
// leave the other prevs stale.
type evList struct {
	head *Event
}

//omxlint:hotpath
func (q *evList) pushBack(ev *Event) {
	ev.next = nil
	h := q.head
	if h == nil {
		q.head, ev.prev = ev, ev
		return
	}
	h.prev.next, h.prev = ev, ev
}

// insertOrdered places ev, which precedes the tail of the non-empty list,
// in (at, pri, seq) order after the last event that does not follow it.
// The walk starts at the tail: an event that precedes some of its slot
// usually precedes only the last few.
//
//omxlint:hotpath
func (q *evList) insertOrdered(ev *Event) {
	h := q.head
	p := h.prev
	for before(ev, p) {
		if p == h {
			ev.next, ev.prev = h, h.prev
			h.prev, q.head = ev, ev
			return
		}
		p = p.prev
	}
	ev.next, ev.prev = p.next, p
	p.next, ev.next.prev = ev, ev
}

// popFront unlinks the head of a level-0 list and reports whether the
// list is now empty.
//
//omxlint:hotpath
func (q *evList) popFront() bool {
	h := q.head
	next := h.next
	q.head = next
	if next == nil {
		return true
	}
	next.prev = h.prev
	return false
}

//omxlint:hotpath
func (w *Wheel) setBit(level, idx int) {
	w.bits[level][idx>>6] |= 1 << uint(idx&63)
	w.sum[level] |= 1 << uint(idx>>6)
}

//omxlint:hotpath
func (w *Wheel) clearBit(level, idx int) {
	word := idx >> 6
	w.bits[level][word] &^= 1 << uint(idx&63)
	if w.bits[level][word] == 0 {
		w.sum[level] &^= 1 << uint(word)
	}
}

// findBit returns the first set bit >= from at the given level, or -1.
// Keep it within the compiler's inlining budget: from's own bitmap word
// answers whenever the next set bit lies in that word's remaining slots,
// which is most level-0 searches, and an inlined check spares those the
// call; the summary word answers otherwise.
//
//omxlint:hotpath
func (w *Wheel) findBit(level, from int) int {
	word := from >> 6
	if word < l0Slots/64 {
		if v := w.bits[level][word] >> uint(from&63); v != 0 {
			return from + bits.TrailingZeros64(v)
		}
	}
	// Resume from the summary word's groups after word. From the last
	// word on the shift count is 64 or more, which Go defines to yield 0:
	// nothing is found, exactly as intended.
	rest := w.sum[level] >> uint(word+1)
	if rest == 0 {
		return -1
	}
	word += 1 + bits.TrailingZeros64(rest)
	return word<<6 + bits.TrailingZeros64(w.bits[level][word])
}

// put files an event into a slot. Level-0 slots are kept in full (at, pri,
// seq) order — they are what popLE drains head-first — while the higher
// levels stay in arrival order: their slots are only ever redistributed
// (cascade), popped when they hold a single event (takeSingle), or
// min-scanned in full (peekSlotMin), none of which needs a sorted list.
// Every level-0 filing (push, cascade, overflow drain) comes through
// here: an event filed into an empty slot becomes its head (and its own
// tail) and sets the slot's bit, an in-order arrival appends at the tail,
// and only an arrival that precedes the tail walks the slot
// (insertOrdered).
//
//omxlint:hotpath
func (w *Wheel) put(level, idx int, ev *Event) {
	if level > 0 {
		w.up[level-1][idx].pushBack(ev)
		w.setBit(level, idx)
		return
	}
	q := &w.l0[idx]
	switch h := q.head; {
	case h == nil:
		ev.next, ev.prev = nil, ev
		q.head = ev
		w.setBit(0, idx)
	case before(h.prev, ev):
		ev.next, ev.prev = nil, h.prev
		h.prev.next, h.prev = ev, ev
	default:
		q.insertOrdered(ev)
	}
}

// place files an event relative to base (the cursor, or the new epoch start
// during an overflow drain): the lowest level whose current epoch contains
// at, or the overflow heap past the level-2 horizon.
//
//omxlint:hotpath
func (w *Wheel) place(base Time, ev *Event) {
	at := ev.at
	switch {
	case at>>l1Shift == base>>l1Shift:
		w.put(0, int((at>>l0Shift)&l0Mask), ev)
	case at>>l2Shift == base>>l2Shift:
		w.put(1, int((at>>l1Shift)&l1Mask), ev)
	case at>>topShift == base>>topShift:
		w.put(2, int((at>>l2Shift)&l2Mask), ev)
	default:
		w.over.push(ev)
	}
}

// push files a freshly stamped event. The engine never schedules before
// now, and the cursor never runs ahead of now (invariant 3), so the event
// lands at or after the cursor.
//
//omxlint:hotpath
func (w *Wheel) push(ev *Event) {
	w.n++
	w.place(w.cur, ev)
}

// cascade redistributes a level-1 or level-2 slot one level down, releasing
// cancelled events instead of moving them. List order is preserved, so
// events mostly reach their level-0 slot in order and append.
//
//omxlint:hotpath
func (w *Wheel) cascade(level, idx int) {
	q := &w.up[level-1][idx]
	ev := q.head
	q.head = nil
	w.clearBit(level, idx)
	for ev != nil {
		next := ev.next
		switch {
		case ev.afn == nil:
			w.n--
			w.eng.release(ev)
		case level == 1:
			w.put(0, int((ev.at>>l0Shift)&l0Mask), ev)
		default:
			w.put(1, int((ev.at>>l1Shift)&l1Mask), ev)
		}
		ev = next
	}
}

// popLE removes and returns the minimum live event if its timestamp is <= t,
// advancing the cursor to it. When the minimum lies beyond t the cursor
// advances to t instead (the engine adopts t as now), so the next search
// resumes there; when nothing live remains at all the cursor stays put —
// that keeps an idle drain from stranding the cursor ahead of later pushes.
//
//omxlint:hotpath
func (w *Wheel) popLE(t Time) *Event {
	lc := w.cur // local cursor; committed only at a pop or proven horizon
	for {
		// Level 0: within lc's epoch the set slots are ordered by time
		// and each holds its events in (at, pri, seq) order, so the first
		// live event in index order is the global minimum.
		for idx := w.findBit(0, int((lc>>l0Shift)&l0Mask)); idx >= 0; idx = w.findBit(0, idx+1) {
			q := &w.l0[idx]
			for ev := q.head; ev != nil; ev = q.head {
				live := ev.afn != nil
				if live && ev.at > t {
					if w.cur < t {
						w.cur = t
					}
					return nil
				}
				if q.popFront() {
					w.clearBit(0, idx)
				}
				w.n--
				if live {
					w.cur = ev.at
					return ev
				}
				w.eng.release(ev)
			}
		}
		// Level-0 epoch exhausted: cascade the next pending level-1 slot.
		// The scan starts at the cursor's own slot — it cannot hold live
		// events (they would have been placed at level 0), but cascading it
		// sweeps out stale cancelled leftovers. Cascading past the horizon
		// would let events settle below a cursor position the engine never
		// adopts, so the search gives up first.
		if idx := w.findBit(1, int((lc>>l1Shift)&l1Mask)); idx >= 0 {
			slotStart := lc&^(1<<l2Shift-1) | Time(idx)<<l1Shift
			if slotStart > t {
				if w.cur < t {
					w.cur = t
				}
				return nil
			}
			if ev := w.takeSingle(1, idx, t); ev != nil {
				return ev
			}
			w.cascade(1, idx)
			if lc < slotStart {
				lc = slotStart
			}
			continue
		}
		// Level-1 epoch exhausted: cascade the next pending level-2 slot.
		if idx := w.findBit(2, int((lc>>l2Shift)&l2Mask)); idx >= 0 {
			slotStart := lc&^(1<<topShift-1) | Time(idx)<<l2Shift
			if slotStart > t {
				if w.cur < t {
					w.cur = t
				}
				return nil
			}
			if ev := w.takeSingle(2, idx, t); ev != nil {
				return ev
			}
			w.cascade(2, idx)
			if lc < slotStart {
				lc = slotStart
			}
			continue
		}
		// Wheels empty: re-anchor on the overflow heap. The heap only holds
		// events in later level-2 epochs than the cursor, so everything in
		// the wheels (nothing, at this point) precedes it.
		for {
			top := w.over.peek()
			if top == nil {
				return nil
			}
			if top.afn != nil {
				break
			}
			w.over.pop()
			w.n--
			w.eng.release(top)
		}
		m := w.over.peek()
		if m.at > t {
			// Horizon commit, with one extra guard: the cursor must never
			// enter the overflow minimum's top-level epoch while that epoch
			// is still parked in the heap. Pushes route by comparing epochs
			// against the cursor, so crossing the boundary here would send
			// later events of that epoch into the wheels, where the scan
			// would pop them ahead of earlier heap residents. Clamp the
			// commit to just below the epoch; the engine still adopts t as
			// now, and the next search resumes from the clamped cursor.
			c := t
			if epoch := m.at &^ (1<<topShift - 1); c >= epoch {
				c = epoch - 1
			}
			if w.cur < c {
				w.cur = c
			}
			return nil
		}
		// Drain the minimum's whole level-2 epoch into the wheels. Heap
		// pops arrive in (at, pri, seq) order, so events append to their
		// slots in order; placement is relative to the epoch start, which
		// is <= m.at and therefore <= every commit that follows.
		lc = m.at &^ (1<<topShift - 1)
		for {
			top := w.over.peek()
			if top == nil || top.at>>topShift != lc>>topShift {
				break
			}
			w.over.pop()
			if top.afn == nil {
				w.n--
				w.eng.release(top)
				continue
			}
			w.place(lc, top)
		}
	}
}

// takeSingle is popLE's sparse-queue fast path: when the first pending slot
// of a level holds exactly one live event, that event is the level's — and
// with all lower levels drained, the queue's — minimum, so it pops directly
// instead of cascading down and rescanning. Returns nil (leaving the slot
// for the caller's cascade) when the slot holds several events; the caller
// has already bounded slotStart by the horizon, but the event itself may
// still lie beyond it, in which case it stays parked and popLE's horizon
// commit is applied here.
//
//omxlint:hotpath
func (w *Wheel) takeSingle(level, idx int, t Time) *Event {
	q := &w.up[level-1][idx]
	ev := q.head
	if ev.next != nil {
		return nil
	}
	if ev.afn == nil {
		q.head = nil
		w.clearBit(level, idx)
		w.n--
		w.eng.release(ev)
		return nil
	}
	if ev.at > t {
		if w.cur < t {
			w.cur = t
		}
		return nil
	}
	q.head = nil
	w.clearBit(level, idx)
	w.n--
	w.cur = ev.at
	return ev
}

// peek returns the minimum live event without structural movement: no
// cascades, no cursor advance. It may release cancelled events it walks
// over. Not cascading matters for correctness, not just cost: peek can look
// arbitrarily far ahead, and moving events down for an epoch the cursor
// never commits to would let a later push land "behind" the wheels' state
// and be missed.
func (w *Wheel) peek() *Event {
	lc := w.cur
	for idx := w.findBit(0, int((lc>>l0Shift)&l0Mask)); idx >= 0; idx = w.findBit(0, idx+1) {
		if ev := w.peekSlot0(idx); ev != nil {
			return ev
		}
	}
	// Higher levels hold mixed timestamps per slot, but slots are monotone
	// in time within an epoch, so the minimum live event of the first
	// non-empty slot is the level's minimum.
	for idx := w.findBit(1, int((lc>>l1Shift)&l1Mask)); idx >= 0; idx = w.findBit(1, idx+1) {
		if ev := w.peekSlotMin(1, idx); ev != nil {
			return ev
		}
	}
	for idx := w.findBit(2, int((lc>>l2Shift)&l2Mask)); idx >= 0; idx = w.findBit(2, idx+1) {
		if ev := w.peekSlotMin(2, idx); ev != nil {
			return ev
		}
	}
	for {
		top := w.over.peek()
		if top == nil || top.afn != nil {
			return top
		}
		w.over.pop()
		w.n--
		w.eng.release(top)
	}
}

// peekSlot0 trims cancelled events off the front of a level-0 slot and
// returns the first live event without removing it, or nil (clearing the
// slot's bit) when only cancelled events remained.
func (w *Wheel) peekSlot0(idx int) *Event {
	q := &w.l0[idx]
	for ev := q.head; ev != nil; ev = q.head {
		if ev.afn != nil {
			return ev
		}
		if q.popFront() {
			w.clearBit(0, idx)
		}
		w.n--
		w.eng.release(ev)
	}
	return nil
}

// peekSlotMin scans a level-1/2 slot for its minimum live event, unlinking
// and releasing cancelled events along the way. Equal timestamps keep the
// first (lowest-seq) entry, preserving FIFO semantics.
func (w *Wheel) peekSlotMin(level, idx int) *Event {
	q := &w.up[level-1][idx]
	var prev, best *Event
	for ev := q.head; ev != nil; {
		if ev.afn == nil {
			next := ev.next
			switch {
			case prev == nil:
				if next != nil {
					next.prev = ev.prev
				}
				q.head = next
			case next == nil:
				prev.next, q.head.prev = nil, prev
			default:
				prev.next = next
			}
			w.n--
			w.eng.release(ev)
			ev = next
			continue
		}
		if best == nil || before(ev, best) {
			best = ev
		}
		prev = ev
		ev = ev.next
	}
	if q.head == nil {
		w.clearBit(level, idx)
	}
	return best
}

// before reports strict queue order between two events: (at, pri, seq).
// (at, seq) pairs are unique, so the order is total and the queue minimum
// is deterministic; pri slots cross-shard events into a position that does
// not depend on which engine scheduled them (see the package comment).
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// heap4 is the timing wheel's far-future overflow queue: an inlined 4-ary
// min-heap ordered by (time, priority, sequence), giving FIFO order at
// equal timestamps and priorities. Methods are specialized to *Event so
// push/pop compile to direct slice operations, and a 4-way branch keeps
// the tree half as deep as a binary heap.
type heap4 struct {
	evs []*Event
}

func (h *heap4) peek() *Event {
	if len(h.evs) == 0 {
		return nil
	}
	return h.evs[0]
}

func (h *heap4) push(ev *Event) {
	i := len(h.evs)
	h.evs = append(h.evs, ev)
	for i > 0 {
		p := (i - 1) >> 2
		pe := h.evs[p]
		if before(pe, ev) {
			break
		}
		h.evs[i] = pe
		i = p
	}
	h.evs[i] = ev
}

func (h *heap4) pop() *Event {
	if len(h.evs) == 0 {
		return nil
	}
	evs := h.evs
	root := evs[0]
	n := len(evs) - 1
	last := evs[n]
	evs[n] = nil
	h.evs = evs[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

// siftDown places ev, displaced from the root by a pop, back into heap
// position.
func (h *heap4) siftDown(ev *Event) {
	evs := h.evs
	n := len(evs)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m, me := c, evs[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if je := evs[j]; before(je, me) {
				m, me = j, je
			}
		}
		if before(ev, me) {
			break
		}
		evs[i] = me
		i = m
	}
	evs[i] = ev
}
