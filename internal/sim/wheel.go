package sim

import "math/bits"

// The timing wheel is a 3-level hierarchical calendar queue sized to the
// simulation's dominant horizons:
//
//	level 0: 4096 slots x 1 ns      — horizon ~4 µs   (wire/NIC events)
//	level 1: 1024 slots x ~4 µs     — horizon ~4.2 ms (coalescing timers)
//	level 2: 1024 slots x ~4.2 ms   — horizon ~4.3 s  (app/NAS phases)
//
// The level-0 span is chosen from the measured push-delta distribution of
// the repository's workloads: ~80% of all events are scheduled less than
// 4 µs ahead of the clock (wire, DMA, IRQ and protocol steps), so the wide
// bottom level places the vast majority of events in O(1) with no cascade
// at all, while 25–750 µs coalescing timers settle one level up. The upper
// levels carry far fewer events and stay narrow to keep the wheel's
// footprint — which the garbage collector scans, since slots anchor event
// pointers — small. Events beyond the level-2 horizon wait in a 4-ary
// overflow heap and are demoted into the wheels when the cursor's level-2
// epoch advances.
//
// # Geometry
//
// All levels are powers of two, so placement is pure bit arithmetic. A
// timestamp's level-l slot index is (at >> shift_l) & mask_l and its
// level-l "epoch" is at >> shift_(l+1), with shifts 0/12/22 and a top
// shift of 32. Within one level-(l+1) epoch the level-l slot indexes are
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
//     epoch. A level-0 slot therefore holds events of exactly one timestamp
//     (plus possibly stale cancelled leftovers from earlier rotations), so
//     slot order at level 0 is (at, pri, seq) order.
//  2. Level-0 slots are explicitly ordered: every insertion into level 0 —
//     direct push, cascade, overflow drain — goes through an (at, pri, seq)
//     ordered insert (see evList.insertOrdered), so the slot head is always
//     the slot minimum regardless of arrival order. In an all-pri-0 run
//     arrivals are already in seq order (pushes carry monotonically
//     increasing seq, cascades preserve list order, and the overflow heap
//     drains in order), so the insert degenerates to the historical O(1)
//     FIFO append.
//  3. The cursor never outruns the commit point: it advances to a popped
//     event's timestamp, or to a RunUntil horizon t that the engine then
//     adopts as now, and cascades only touch slots that start at or before
//     that commit. The engine never schedules before now, so a push always
//     lands relative to a cursor that is <= every live timestamp; a search
//     that comes up empty (queue drained, or only cancelled events left)
//     may release cancelled events but moves no live event and leaves the
//     cursor untouched.
//
// # Cost model
//
// push is O(1): three epoch compares, a list append, a bitmap OR. popLE is
// amortized O(1): same-instant bursts drain from the cursor's slot without
// rescanning (the slot's bit stays set while events remain — this is what
// batches same-timestamp dispatch in Engine.Step and RunUntil), gaps are
// crossed with a two-level bitmap (one summary word of non-empty 64-slot
// groups per level, then one trailing-zeros scan), a sparse slot pops
// directly from its level without cascading (takeSingle), and each event
// otherwise cascades at most twice on its way down. The overflow heap only
// sees events more than ~4 virtual seconds ahead, which no workload in the
// repository does.
type Wheel struct {
	// cur is the committed cursor: every live event with at < cur has been
	// popped. It only advances when popLE returns an event or a bounded
	// search proves nothing remains at or before its horizon.
	cur Time
	n   int
	eng *Engine
	// sum[l] bit w mirrors "bits[l][w] != 0": the two-level bitmap that
	// finds the next populated slot in O(1).
	sum   [wheelLevels]uint64
	bits  [wheelLevels][]uint64
	slots [wheelLevels][]evList
	over  heap4
}

const (
	wheelLevels = 3

	l0Bits  = 12
	l1Bits  = 10
	l2Bits  = 10
	l0Slots = 1 << l0Bits
	l1Slots = 1 << l1Bits
	l2Slots = 1 << l2Bits
	l0Mask  = l0Slots - 1
	l1Mask  = l1Slots - 1
	l2Mask  = l2Slots - 1
	// lNShift positions a level's slot index within a timestamp; topShift
	// is the level-2 epoch boundary, past which events overflow to the
	// heap.
	l1Shift  = l0Bits
	l2Shift  = l0Bits + l1Bits
	topShift = l0Bits + l1Bits + l2Bits

	// maxHorizon disables the horizon guards: no simulated timestamp
	// reaches it (it is ~146 years of virtual nanoseconds).
	maxHorizon = Time(1) << 62
)

// evList is an intrusive FIFO of events threaded through Event.next, so
// slot membership costs no allocation and no slice growth.
type evList struct {
	head, tail *Event
}

//omxlint:hotpath
func (q *evList) pushBack(ev *Event) {
	ev.next = nil
	if q.tail == nil {
		q.head = ev
	} else {
		q.tail.next = ev
	}
	q.tail = ev
}

// insertOrdered places ev in (at, pri, seq) order. The fast path — ev not
// before the current tail — is a plain append, which is every insertion in
// an all-pri-0 simulation (level-0 slots hold a single timestamp and events
// arrive in seq order). Only cross-shard events (pri > 0) landing among
// same-instant peers ever take the scan, and a level-0 slot holds a handful
// of events at most.
//
//omxlint:hotpath
func (q *evList) insertOrdered(ev *Event) {
	if q.tail == nil || !before(ev, q.tail) {
		q.pushBack(ev)
		return
	}
	if before(ev, q.head) {
		ev.next = q.head
		q.head = ev
		return
	}
	p := q.head
	for !before(ev, p.next) {
		p = p.next
	}
	ev.next = p.next
	p.next = ev
}

// newWheel returns an empty timing wheel that recycles discarded events
// through eng's free list.
func newWheel(eng *Engine) *Wheel {
	w := &Wheel{eng: eng}
	w.slots[0] = make([]evList, l0Slots)
	w.slots[1] = make([]evList, l1Slots)
	w.slots[2] = make([]evList, l2Slots)
	w.bits[0] = make([]uint64, l0Slots/64)
	w.bits[1] = make([]uint64, l1Slots/64)
	w.bits[2] = make([]uint64, l2Slots/64)
	return w
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
//
//omxlint:hotpath
func (w *Wheel) findBit(level, from int) int {
	b := w.bits[level]
	word := from >> 6
	if word >= len(b) {
		return -1
	}
	if v := b[word] >> uint(from&63); v != 0 {
		return from + bits.TrailingZeros64(v)
	}
	// Resume from the summary word, masking off groups up to and including
	// the word just checked. When that word is the 64th the mask shift
	// reaches 64, which Go defines as 0 — the wrapped mask then covers
	// everything, exactly as intended.
	rest := w.sum[level] &^ (1<<uint(word+1) - 1)
	if rest == 0 {
		return -1
	}
	word = bits.TrailingZeros64(rest)
	return word<<6 + bits.TrailingZeros64(b[word])
}

// put files an event into a slot. Level-0 slots are kept in full (at, pri,
// seq) order — they are what popLE drains head-first — while the higher
// levels stay FIFO: their slots are only ever redistributed (cascade),
// popped when they hold a single event (takeSingle), or min-scanned in full
// (peekSlotMin), none of which needs a sorted list.
//
//omxlint:hotpath
func (w *Wheel) put(level, idx int, ev *Event) {
	if level == 0 {
		w.slots[0][idx].insertOrdered(ev)
	} else {
		w.slots[level][idx].pushBack(ev)
	}
	w.setBit(level, idx)
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
		w.put(0, int(at&l0Mask), ev)
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
// cancelled events instead of moving them. List order is preserved, which
// keeps per-timestamp FIFO order intact.
//
//omxlint:hotpath
func (w *Wheel) cascade(level, idx int) {
	q := &w.slots[level][idx]
	ev := q.head
	q.head, q.tail = nil, nil
	w.clearBit(level, idx)
	for ev != nil {
		next := ev.next
		switch {
		case ev.cancelled:
			w.n--
			w.eng.release(ev)
		case level == 1:
			w.put(0, int(ev.at&l0Mask), ev)
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
		// Level 0: within lc's epoch each set slot holds one timestamp in
		// FIFO order, so the first live event in index order is the global
		// minimum.
		for idx := w.findBit(0, int(lc&l0Mask)); idx >= 0; idx = w.findBit(0, idx+1) {
			q := &w.slots[0][idx]
			for ev := q.head; ev != nil; ev = q.head {
				live := !ev.cancelled
				if live && ev.at > t {
					if w.cur < t {
						w.cur = t
					}
					return nil
				}
				q.head = ev.next
				if q.head == nil {
					q.tail = nil
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
			if !top.cancelled {
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
		// pops arrive in (at, seq) order, so same-timestamp events append
		// to their slots in seq order; placement is relative to the epoch
		// start, which is <= m.at and therefore <= every commit that
		// follows.
		lc = m.at &^ (1<<topShift - 1)
		for {
			top := w.over.peek()
			if top == nil || top.at>>topShift != lc>>topShift {
				break
			}
			w.over.pop()
			if top.cancelled {
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
	q := &w.slots[level][idx]
	ev := q.head
	if ev.next != nil {
		return nil
	}
	if ev.cancelled {
		q.head, q.tail = nil, nil
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
	q.head, q.tail = nil, nil
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
	for idx := w.findBit(0, int(lc&l0Mask)); idx >= 0; idx = w.findBit(0, idx+1) {
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
		if top == nil || !top.cancelled {
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
	q := &w.slots[0][idx]
	for ev := q.head; ev != nil; ev = q.head {
		if !ev.cancelled {
			return ev
		}
		q.head = ev.next
		if q.head == nil {
			q.tail = nil
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
	q := &w.slots[level][idx]
	var prev, best *Event
	for ev := q.head; ev != nil; {
		if ev.cancelled {
			next := ev.next
			if prev == nil {
				q.head = next
			} else {
				prev.next = next
			}
			if next == nil {
				q.tail = prev
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
