package omx

import (
	"math"
	"testing"
	"testing/quick"

	"openmxsim/internal/sim"
)

// Property: the sequence-acceptance machinery delivers each sequence number
// exactly once and advances recvNext to the contiguous frontier, for any
// arrival order with duplicates. Runs start at sequence 0 and just below
// 2^32, so both the in-order fast path and the out-of-order set are checked
// across the wrap of the sequence space.
func TestAcceptSeqProperty(t *testing.T) {
	for _, base := range []uint32{0, math.MaxUint32 - 2} {
		f := func(perm []uint8, dups []uint8) bool {
			r := defaultRig(t)
			c := newChannel(r.a, r.b.Addr())
			c.recvNext, c.consumedTo, c.ackedTo = base, base, base
			n := len(perm)
			if n == 0 {
				return true
			}
			// Build an arrival order: offsets 0..n-1 from base plus
			// duplicates.
			order := make([]uint32, 0, n+len(dups))
			for _, p := range perm {
				order = append(order, base+uint32(int(p)%n))
			}
			for _, d := range dups {
				order = append(order, base+uint32(int(d)%n))
			}
			accepted := map[uint32]int{}
			for _, seq := range order {
				if c.acceptSeq(seq) {
					accepted[seq]++
				}
			}
			for seq, cnt := range accepted {
				if cnt != 1 {
					t.Logf("base %d: seq %d accepted %d times", base, seq, cnt)
					return false
				}
			}
			// recvNext must be the first never-presented sequence.
			present := map[uint32]bool{}
			for _, s := range order {
				present[s] = true
			}
			want := base
			for present[want] {
				want++
			}
			return c.recvNext == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("base %d: %v", base, err)
		}
	}
}

// Property: the matching mask semantics are exactly
// (msg & mask) == (match & mask).
func TestMatchMaskProperty(t *testing.T) {
	f := func(match, mask, msg uint64) bool {
		rh := &RecvHandle{Match: match, Mask: mask}
		return rh.matches(msg) == ((msg & mask) == (match & mask))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: for any message size, the class split and fragment counts are
// consistent: small <= 128 B is one packet, mediums fragment by MTU-32,
// larges compute pull blocks of <= 32 fragments covering the entire size.
func TestSizeClassProperty(t *testing.T) {
	r := defaultRig(t)
	p := r.p
	fragPayload := p.Proto.EagerFragPayload(32)
	f := func(raw uint32) bool {
		size := int(raw % (4 << 20))
		switch {
		case size <= p.Proto.SmallMax:
			return true // single packet by construction
		case size <= p.Proto.MediumMax:
			frags := (size + fragPayload - 1) / fragPayload
			return frags >= 1 && frags <= 23 && (frags-1)*fragPayload < size
		default:
			replies := (size + p.Proto.PullReplyPayload - 1) / p.Proto.PullReplyPayload
			blocks := (replies + p.Proto.PullBlockFrags - 1) / p.Proto.PullBlockFrags
			covered := replies * p.Proto.PullReplyPayload
			return covered >= size && blocks*p.Proto.PullBlockFrags >= replies
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: any mix of message sizes sent between two nodes is delivered
// exactly once with the right sizes, regardless of strategy.
func TestMixedTrafficDelivery(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 24 {
			return true
		}
		r := defaultRig(t)
		want := map[uint64]int{}
		got := map[uint64]int{}
		r.eng.After(0, func() {
			for i, sr := range sizesRaw {
				size := int(sr) * 17 % (200 << 10)
				tag := uint64(i)
				want[tag] = size
				r.b.Irecv(tag, ^uint64(0), nil, size, func(rh *RecvHandle) {
					got[rh.MatchV] = rh.Len
				})
				r.a.Isend(r.b.Addr(), tag, nil, size, nil)
			}
		})
		r.eng.Run()
		if len(got) != len(want) {
			t.Logf("delivered %d of %d messages", len(got), len(want))
			return false
		}
		for tag, size := range want {
			if got[tag] != size {
				t.Logf("tag %d: got %d want %d", tag, got[tag], size)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Invariant: simulated transfer duration is monotone in message size for a
// fixed strategy (no scheduling anomalies).
func TestTransferTimeMonotoneInSize(t *testing.T) {
	var prev sim.Time
	for _, size := range []int{128, 4 << 10, 32 << 10, 128 << 10, 512 << 10} {
		r := defaultRig(t)
		var done sim.Time
		r.eng.After(0, func() {
			r.b.Irecv(1, ^uint64(0), nil, size, func(*RecvHandle) { done = r.eng.Now() })
			r.a.Isend(r.b.Addr(), 1, nil, size, nil)
		})
		r.eng.Run()
		if done == 0 {
			t.Fatalf("size %d never completed", size)
		}
		if done < prev {
			t.Errorf("size %d finished at %d, before smaller size at %d", size, done, prev)
		}
		prev = done
	}
}
