package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
)

// parkedLevel reports where the wheel holds ev: its level, wheelLevels
// for the overflow heap, or -1 when ev is not queued.
func parkedLevel(w *Wheel, ev *Event) int {
	holds := func(q *evList) bool {
		for p := q.head; p != nil; p = p.next {
			if p == ev {
				return true
			}
		}
		return false
	}
	for i := range w.l0 {
		if holds(&w.l0[i]) {
			return 0
		}
	}
	for l := range w.up {
		for i := range w.up[l] {
			if holds(&w.up[l][i]) {
				return l + 1
			}
		}
	}
	for _, p := range w.over.evs {
		if p == ev {
			return wheelLevels
		}
	}
	return -1
}

// TestEventFitsSizeClass guards the Event layout: 64 bytes is one cache
// line and the top of Go's 64-byte allocation size class, so a field added
// past it would spread every event over two lines and move it into the
// 80-byte class.
func TestEventFitsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 64 {
		t.Fatalf("Event is %d bytes, want at most 64", size)
	}
}

// TestEngineFootprint guards the engine's size: one allocation of at most
// 7 heap pages of 8 KB. Building an engine zeroes all of it, so each page
// past that is one more page fault whenever the runtime has returned the
// memory to the OS.
func TestEngineFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 7<<13 {
		t.Fatalf("Engine is %d bytes, want at most %d", size, 7<<13)
	}
}

// checkSlotLinks fails t unless every slot's head keeps the list's tail
// in prev and, at level 0, every other event's prev is its predecessor.
func checkSlotLinks(t *testing.T, w *Wheel) {
	t.Helper()
	check := func(q *evList, level int) {
		var last *Event
		for p := q.head; p != nil; p = p.next {
			if level == 0 && last != nil && p.prev != last {
				t.Fatalf("level-0 event at %d: prev is not its predecessor", p.at)
			}
			last = p
		}
		if q.head != nil && q.head.prev != last {
			t.Fatalf("level-%d slot headed at %d: the head's prev is not the tail", level, q.head.at)
		}
	}
	for i := range w.l0 {
		check(&w.l0[i], 0)
	}
	for l := range w.up {
		for i := range w.up[l] {
			check(&w.up[l][i], l+1)
		}
	}
}

// TestSlotListLinks checks the slot lists' links after every operation of
// a random mix that files at every level, cancels, peeks (which unlinks
// cancelled events from the middle and the ends of upper-level slots),
// steps and runs to horizons.
func TestSlotListLinks(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := NewEngine()
	var live []*Event
	scales := []int64{1 << l0Shift, 1 << l1Shift, 1 << l2Shift, 1 << topShift}
	for op := 0; op < 3000; op++ {
		switch r.Intn(6) {
		case 0, 1, 2:
			d := Time(r.Int63n(scales[r.Intn(len(scales))]))
			live = append(live, e.After(d, func() {}))
		case 3:
			if len(live) > 0 {
				k := r.Intn(len(live))
				live[k].Cancel()
				live = append(live[:k], live[k+1:]...)
			}
		case 4:
			e.PeekTime()
		case 5:
			if r.Intn(2) == 0 {
				e.Step()
			} else {
				e.RunUntil(e.Now() + Time(r.Int63n(scales[r.Intn(2)])))
			}
			live = live[:0] // fired handles may be recycled
		}
		checkSlotLinks(t, &e.wheel)
	}
	e.Run()
	if n := e.Pending(); n != 0 {
		t.Fatalf("%d events left after drain", n)
	}
}

// TestWheelFiles200usAtLevel0: level 0 spans 1<<l1Shift ns (~262 µs), so
// an event 200 µs ahead of a cursor at the start of a level-1 epoch is
// filed straight into its level-0 slot, with nothing parked above it to
// cascade later.
func TestWheelFiles200usAtLevel0(t *testing.T) {
	e := NewEngine()
	ev := e.After(200*Microsecond, func() {})
	w := &e.wheel
	idx := int((ev.At() >> l0Shift) & l0Mask)
	if w.bits[0][idx>>6]&(1<<uint(idx&63)) == 0 {
		t.Fatalf("level-0 bit %d not set for an event 200 µs ahead", idx)
	}
	if w.sum[1] != 0 || w.sum[2] != 0 || len(w.over.evs) != 0 {
		t.Fatalf("an event 200 µs ahead reached a higher level: sum[1] %#x, sum[2] %#x, overflow %d",
			w.sum[1], w.sum[2], len(w.over.evs))
	}
	if e.Step(); e.Now() != 200*Microsecond || e.Pending() != 0 {
		t.Fatalf("Step ran to %d with %d pending, want 200 µs and none", e.Now(), e.Pending())
	}
}

// TestWheelDenseSlot crowds one 64-ns level-0 slot the way 63 lockstep
// incast senders do: 64 events at random offsets inside the slot,
// scheduled in random order with mixed pri keys. Some are cancelled from
// the middle of the slot's list, then a RunUntil horizon stops the cursor
// inside the slot, and more events are ordered in behind it, some ahead
// of events still queued there. The slot is filled both by direct
// placement and by a cascade from level 1.
func TestWheelDenseSlot(t *testing.T) {
	const width = Time(1) << l0Shift
	cases := []struct {
		name  string
		slot  Time // slot start, scheduled from t=0
		level int  // where the first event parks
	}{
		{"direct", 10 * width, 0},
		{"cascaded", 3<<l1Shift + 10*width, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(c.slot)))
			tw := newTwin()
			pris := []uint64{0, 0, 1, 2, 7}
			schedule := func(id int, at Time) {
				d := at - tw.engines[0].Now()
				if pri := pris[r.Intn(len(pris))]; pri == 0 {
					tw.schedule(id, d, false)
				} else {
					tw.schedulePri(id, d, pri)
				}
			}
			for id := 1; id <= 64; id++ {
				schedule(id, c.slot+Time(r.Intn(int(width))))
			}
			w := &tw.engines[0].(*Engine).wheel
			if l := parkedLevel(w, tw.pending[0][0]); l != c.level {
				t.Fatalf("slot event parked at level %d, want %d", l, c.level)
			}
			if c.level == 0 {
				n := 0
				for ev := w.l0[(c.slot>>l0Shift)&l0Mask].head; ev != nil; ev = ev.next {
					n++
				}
				if n != 64 {
					t.Fatalf("slot holds %d events, want all 64", n)
				}
			}
			for k := 3; k < 64; k += 7 {
				tw.cancel(k)
			}
			horizon := c.slot + width/2 - 1
			tw.engines[0].RunUntil(horizon)
			tw.engines[1].RunUntil(horizon)
			tw.expire()
			tw.compare(t)
			for id := 65; id <= 96; id++ {
				schedule(id, horizon+Time(r.Intn(int(c.slot+width-horizon))))
			}
			for k := 1; k < 96; k += 5 {
				tw.cancel(k)
			}
			tw.engines[0].Run()
			tw.engines[1].Run()
			tw.compare(t)
			if p := tw.engines[0].Pending(); p != 0 {
				t.Fatalf("wheel Pending = %d after full drain", p)
			}
		})
	}
}

// fuzzDelayClasses is the number of delay classes fuzzDelay draws from.
const fuzzDelayClasses = 6

// fuzzDelay maps a class byte and 32 bits to a delay: zero, within one
// level-0 slot, within level 0's span, within level 1's, within level 2's,
// or past level 2's horizon into the overflow heap (spans as seen from a
// cursor at the start of an epoch).
func fuzzDelay(class byte, x uint32) Time {
	v := Time(x)
	switch class % fuzzDelayClasses {
	case 0:
		return 0
	case 1:
		return v & (1<<l0Shift - 1)
	case 2:
		return v & (1<<l1Shift - 1)
	case 3:
		return v & (1<<l2Shift - 1)
	case 4:
		return v << (topShift - 32)
	default:
		return 1<<topShift + v<<(topShift-32)
	}
}

// fuzzBytes hands out a fuzz input a field at a time, reading zeros once
// it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) uint32() uint32 {
	var x [4]byte
	for i := range x {
		x[i] = b.next()
	}
	return binary.LittleEndian.Uint32(x[:])
}

// FuzzWheelOrder decodes its input into a twin-harness operation stream
// and requires the wheel and the reference heap to agree on every clock
// reading and on the whole dispatch log. Operations: schedule at a delay
// from any wheel level or within one level-0 slot, with a pri key or as a
// plain event that may schedule follow-ups when it fires; cancel a
// pending handle; Step; RunUntil a horizon from any level; drain.
func FuzzWheelOrder(f *testing.F) {
	// One seed per delay class: three schedules (a plain event that
	// schedules follow-ups when it fires, then two with pri keys), a
	// cancel, a horizon run, two steps and a drain.
	for class := byte(0); class < fuzzDelayClasses; class++ {
		f.Add([]byte{
			0, class, 0x5a, 0x11, 0x00, 0x80, 0x80,
			0, class, 0x03, 0x20, 0x01, 0x00, 2,
			0, class, 0x5a, 0x11, 0x00, 0x00, 1,
			1, 1,
			3, class, 0x00, 0x10, 0x00, 0x40,
			2, 1,
			4,
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		tw := newTwin()
		for id := 1; id <= 256 && len(in) > 0; id++ {
			switch in.next() % 5 {
			case 0:
				class, x, key := in.next(), in.uint32(), in.next()
				d := fuzzDelay(class, x)
				if pri := uint64(key % 4); pri > 0 {
					tw.schedulePri(id, d, pri)
				} else {
					tw.schedule(id, d, key&0x80 != 0)
				}
			case 1:
				k := int(in.next())
				if n := len(tw.pending[0]); n > 0 {
					tw.cancel(k % n)
				}
			case 2:
				for j := in.next()%4 + 1; j > 0; j-- {
					tw.engines[0].Step()
					tw.engines[1].Step()
				}
				tw.expire()
			case 3:
				class, x := in.next(), in.uint32()
				horizon := tw.engines[0].Now() + fuzzDelay(class, x)
				tw.engines[0].RunUntil(horizon)
				tw.engines[1].RunUntil(horizon)
				tw.expire()
			case 4:
				tw.engines[0].Run()
				tw.engines[1].Run()
				tw.pending[0], tw.pending[1], tw.due = nil, nil, nil
			}
			if a, b := tw.engines[0].Now(), tw.engines[1].Now(); a != b {
				t.Fatalf("op %d: clocks diverged: engine %d vs reference %d", id, a, b)
			}
		}
		tw.engines[0].Run()
		tw.engines[1].Run()
		tw.compare(t)
		if p0, p1 := tw.engines[0].Pending(), tw.engines[1].Pending(); p0 != 0 || p1 != 0 {
			t.Fatalf("events left after drain: engine %d, reference %d", p0, p1)
		}
	})
}
