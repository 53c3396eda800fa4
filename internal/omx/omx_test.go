package omx

import (
	"bytes"
	"testing"

	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// rig is a two-node testbed: node A (endpoint a) and node B (endpoint b).
type rig struct {
	eng    *sim.Engine
	p      *params.Params
	sw     *fabric.Switch
	hostA  *host.Host
	hostB  *host.Host
	stackA *Stack
	stackB *Stack
	a, b   *Endpoint
}

func newRig(t *testing.T, strat nic.Strategy, delay sim.Time) *rig {
	t.Helper()
	eng := sim.NewEngine()
	eng.Limit = 50_000_000
	p := params.Default()
	rng := sim.NewRNG(42)
	sw := fabric.NewSwitch(eng, p.Link, rng.Derive(1))
	hA := host.New(eng, 0, p.Host)
	hB := host.New(eng, 1, p.Host)
	cfg := nic.Config{Strategy: strat, Delay: delay}
	nA := nic.New(eng, p, hA, sw, wire.NodeMAC(0), cfg)
	nB := nic.New(eng, p, hB, sw, wire.NodeMAC(1), cfg)
	sA := NewStack(eng, p, hA, nA, rng.Derive(2))
	sB := NewStack(eng, p, hB, nB, rng.Derive(3))
	return &rig{
		eng: eng, p: p, sw: sw, hostA: hA, hostB: hB,
		stackA: sA, stackB: sB,
		a: sA.Open(0, hA.Cores[0]),
		b: sB.Open(0, hB.Cores[0]),
	}
}

func defaultRig(t *testing.T) *rig {
	return newRig(t, nic.StrategyTimeout, 75*sim.Microsecond)
}

func TestSmallMessageData(t *testing.T) {
	r := defaultRig(t)
	payload := []byte("hello open-mx world")
	buf := make([]byte, 64)
	var got *RecvHandle
	r.eng.After(0, func() {
		r.b.Irecv(0x42, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 0x42, payload, 0, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("receive never completed")
	}
	if got.Len != len(payload) {
		t.Fatalf("Len = %d, want %d", got.Len, len(payload))
	}
	if !bytes.Equal(buf[:got.Len], payload) {
		t.Fatalf("data corrupted: %q", buf[:got.Len])
	}
	if got.Src != r.a.Addr() {
		t.Errorf("Src = %v, want %v", got.Src, r.a.Addr())
	}
	if got.MatchV != 0x42 {
		t.Errorf("MatchV = %#x", got.MatchV)
	}
}

func TestTinyMessageUsesOnePacket(t *testing.T) {
	r := defaultRig(t)
	r.eng.After(0, func() {
		r.b.Irecv(1, ^uint64(0), nil, 32, nil)
		r.a.Isend(r.b.Addr(), 1, []byte("hi"), 0, nil)
	})
	r.eng.Run()
	if r.stackA.Stats.SmallSent != 1 {
		t.Errorf("SmallSent = %d", r.stackA.Stats.SmallSent)
	}
}

func TestMediumMessageFragmentationAndData(t *testing.T) {
	r := defaultRig(t)
	size := 32 * 1024
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	buf := make([]byte, size)
	var got *RecvHandle
	sendDone := false
	r.eng.After(0, func() {
		r.b.Irecv(7, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 7, payload, 0, func() { sendDone = true })
	})
	r.eng.Run()
	if got == nil || !sendDone {
		t.Fatal("medium transfer did not complete")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("medium data corrupted")
	}
	// 32 KiB at MTU 1500 with a 32-byte header = 23 fragments (Table III).
	fragPayload := r.p.Proto.EagerFragPayload(wire.HeaderLen)
	wantFrags := (size + fragPayload - 1) / fragPayload
	if wantFrags != 23 {
		t.Fatalf("fragment count = %d, want 23 (paper's 32kiB medium)", wantFrags)
	}
	if r.stackA.Stats.MediumSent != 1 || r.stackB.Stats.MediumRecvd != 1 {
		t.Errorf("medium counters: sent %d recvd %d", r.stackA.Stats.MediumSent, r.stackB.Stats.MediumRecvd)
	}
}

func TestLargeMessagePullProtocol(t *testing.T) {
	r := defaultRig(t)
	size := 234 * 1024
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i ^ (i >> 8))
	}
	buf := make([]byte, size)
	var got *RecvHandle
	sendDone := false
	r.eng.After(0, func() {
		r.b.Irecv(9, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 9, payload, 0, func() { sendDone = true })
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("large receive did not complete")
	}
	if !sendDone {
		t.Fatal("large send did not complete (notify lost?)")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("large data corrupted")
	}
	// Paper, Section IV-C3: a 234 kiB message needs 5 pull requests, each
	// answered by up to 32 replies (160 replies total).
	if r.stackB.Stats.PullRequestsSent != 5 {
		t.Errorf("pull requests = %d, want 5", r.stackB.Stats.PullRequestsSent)
	}
	if r.stackA.Stats.PullRepliesSent != 160 {
		t.Errorf("pull replies = %d, want 160", r.stackA.Stats.PullRepliesSent)
	}
	if r.stackA.Stats.LargeSent != 1 || r.stackB.Stats.LargeRecvd != 1 {
		t.Errorf("large counters: sent %d recvd %d", r.stackA.Stats.LargeSent, r.stackB.Stats.LargeRecvd)
	}
}

func TestUnexpectedMessageMatchedLater(t *testing.T) {
	r := defaultRig(t)
	payload := []byte("early bird")
	buf := make([]byte, 32)
	var got *RecvHandle
	r.eng.After(0, func() {
		r.a.Isend(r.b.Addr(), 5, payload, 0, nil)
	})
	// Post the receive well after the message has arrived.
	r.eng.After(2*sim.Millisecond, func() {
		r.b.Irecv(5, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("late-posted receive never matched the unexpected message")
	}
	if !bytes.Equal(buf[:got.Len], payload) {
		t.Fatal("unexpected-path data corrupted")
	}
	if r.stackB.Stats.UnexpectedMsgs == 0 {
		t.Error("unexpected counter not incremented")
	}
}

func TestUnexpectedRendezvousMatchedLater(t *testing.T) {
	r := defaultRig(t)
	size := 100 * 1024
	var got *RecvHandle
	r.eng.After(0, func() {
		r.a.Isend(r.b.Addr(), 5, nil, size, nil)
	})
	r.eng.After(2*sim.Millisecond, func() {
		r.b.Irecv(5, ^uint64(0), nil, size, func(rh *RecvHandle) { got = rh })
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("late receive never triggered the pull")
	}
	if got.Len != size {
		t.Errorf("Len = %d, want %d", got.Len, size)
	}
}

func TestMatchingMask(t *testing.T) {
	r := defaultRig(t)
	// Receive matches only the low 32 bits (MPI_ANY_SOURCE style).
	var got *RecvHandle
	r.eng.After(0, func() {
		r.b.Irecv(0x0000_0000_0000_0BEE, 0x0000_0000_FFFF_FFFF, nil, 128, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 0xABCD_0000_0000_0BEE, nil, 16, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("masked match failed")
	}
	if got.MatchV != 0xABCD_0000_0000_0BEE {
		t.Errorf("MatchV = %#x", got.MatchV)
	}
}

// TestMatchingIsFIFO checks MX matching order on deep queues: the earliest
// posted matching receive wins, and unexpected messages match in arrival
// order. Receives and messages alternate two tags, and all of tag 1 is
// matched before any of tag 2, so each match takes an entry from inside
// the queue, on either side of its middle. Between rounds the queue keeps
// its unmatched tag-2 half and takes the next 64 entries, so it wraps and
// grows.
func TestMatchingIsFIFO(t *testing.T) {
	const (
		perRound = 64
		tagMask  = 0xFFFF_FFFF // receives match the tag; the high bits number the message
	)
	for _, tc := range []struct {
		name       string
		rounds     int
		unexpected bool // messages arrive before the receives are posted
	}{
		{"posted", 1, false},
		{"posted-wrapping", 3, false},
		{"unexpected", 1, true},
		{"unexpected-wrapping", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := defaultRig(t)
			type recv struct {
				tag, idx int // idx-th receive posted for tag
				rh       *RecvHandle
			}
			var recvs []*recv
			var done []*recv
			posted := map[int]int{}
			post := func(tag int) {
				rc := &recv{tag: tag, idx: posted[tag]}
				posted[tag]++
				rc.rh = r.b.Irecv(uint64(tag), tagMask, nil, 64, func(*RecvHandle) { done = append(done, rc) })
				recvs = append(recvs, rc)
			}
			sent := map[int]int{}
			send := func(tag int) {
				r.a.Isend(r.b.Addr(), uint64(sent[tag])<<32|uint64(tag), nil, 8, nil)
				sent[tag]++
			}
			// The side that goes first in each round queues perRound
			// entries alternating tags 1 and 2; the other side then
			// matches the round's tag-1 half. All tag-2 matches come last.
			first, second := post, send
			if tc.unexpected {
				first, second = send, post
			}
			for round := range tc.rounds {
				at := sim.Time(round) * 2 * sim.Millisecond
				r.eng.Schedule(at, func() {
					for i := range perRound {
						first(1 + i%2)
					}
				})
				r.eng.Schedule(at+sim.Millisecond, func() {
					for range perRound / 2 {
						second(1)
					}
				})
			}
			r.eng.Schedule(sim.Time(tc.rounds)*2*sim.Millisecond, func() {
				for range tc.rounds * perRound / 2 {
					second(2)
				}
			})
			r.eng.Run()

			if len(done) != len(recvs) {
				t.Fatalf("%d of %d receives completed", len(done), len(recvs))
			}
			completed := map[int]int{}
			for _, rc := range done {
				if rc.idx != completed[rc.tag] {
					t.Fatalf("tag %d: receive %d completed as number %d", rc.tag, rc.idx, completed[rc.tag])
				}
				completed[rc.tag]++
				if want := uint64(rc.idx)<<32 | uint64(rc.tag); rc.rh.MatchV != want {
					t.Fatalf("tag %d: receive %d matched message %#x, want %#x", rc.tag, rc.idx, rc.rh.MatchV, want)
				}
			}
			want := uint64(0)
			if tc.unexpected {
				want = uint64(tc.rounds * perRound)
			}
			if got := r.stackB.Stats.UnexpectedMsgs; got != want {
				t.Errorf("UnexpectedMsgs = %d, want %d", got, want)
			}
		})
	}
}

func TestWindowBackpressureManySmall(t *testing.T) {
	r := defaultRig(t)
	const n = 300 // well beyond the 64-packet window
	recvd := 0
	sent := 0
	r.eng.After(0, func() {
		for i := 0; i < n; i++ {
			r.b.Irecv(uint64(i), ^uint64(0), nil, 128, func(*RecvHandle) { recvd++ })
		}
		for i := 0; i < n; i++ {
			r.a.Isend(r.b.Addr(), uint64(i), nil, 64, func() { sent++ })
		}
	})
	r.eng.Run()
	if sent != n || recvd != n {
		t.Fatalf("sent %d recvd %d, want %d", sent, recvd, n)
	}
	if r.stackB.Stats.AcksSent == 0 {
		t.Error("no acks generated")
	}
	if r.stackA.Stats.Retransmits != 0 {
		t.Errorf("clean run retransmitted %d packets", r.stackA.Stats.Retransmits)
	}
}

func TestDropRecoveryEager(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DropProb: 0.05})
	const n = 80
	recvd := 0
	r.eng.After(0, func() {
		for i := 0; i < n; i++ {
			r.b.Irecv(uint64(i), ^uint64(0), nil, 4096, func(*RecvHandle) { recvd++ })
		}
		for i := 0; i < n; i++ {
			r.a.Isend(r.b.Addr(), uint64(i), nil, 2000, nil) // 2-fragment mediums
		}
	})
	r.eng.Run()
	if recvd != n {
		t.Fatalf("recvd %d/%d despite retransmission", recvd, n)
	}
	if r.stackA.Stats.Retransmits == 0 {
		t.Error("5%% drop produced no retransmits")
	}
}

func TestDropRecoveryLarge(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DropProb: 0.02})
	size := 200 * 1024
	var got *RecvHandle
	sendDone := false
	r.eng.After(0, func() {
		r.b.Irecv(3, ^uint64(0), nil, size, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 3, nil, size, func() { sendDone = true })
	})
	r.eng.Run()
	if got == nil || !sendDone {
		t.Fatalf("large transfer with drops did not complete (recv=%v send=%v)", got != nil, sendDone)
	}
}

func TestDuplicateDeliveryFiltered(t *testing.T) {
	r := defaultRig(t)
	r.sw.SetFault(&fabric.Fault{DupProb: 0.5})
	const n = 40
	recvd := 0
	r.eng.After(0, func() {
		for i := 0; i < n; i++ {
			r.b.Irecv(uint64(i), ^uint64(0), nil, 128, func(*RecvHandle) { recvd++ })
		}
		for i := 0; i < n; i++ {
			r.a.Isend(r.b.Addr(), uint64(i), nil, 32, nil)
		}
	})
	r.eng.Run()
	if recvd != n {
		t.Fatalf("recvd %d, want exactly %d (duplicates must be filtered)", recvd, n)
	}
	if r.stackB.Stats.Duplicates == 0 {
		t.Error("no duplicates recorded despite DupProb=0.5")
	}
}

func TestReorderedMediumStillCompletes(t *testing.T) {
	r := defaultRig(t)
	// Delay ~20% of medium fragments by 30us: heavy reordering.
	r.sw.SetFault(&fabric.Fault{
		DelayProb: 0.2, DelayTime: 30 * sim.Microsecond,
		Filter: func(f *wire.Frame) bool { return f.Header.Type == wire.TypeMediumFrag },
	})
	size := 32 * 1024
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	buf := make([]byte, size)
	var got *RecvHandle
	r.eng.After(0, func() {
		r.b.Irecv(1, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 1, payload, 0, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("reordered medium never completed")
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("reordered medium corrupted")
	}
}

func TestShmIntraNode(t *testing.T) {
	r := defaultRig(t)
	a2 := r.stackA.Open(1, r.hostA.Cores[1])
	payload := []byte("same-node neighbours")
	buf := make([]byte, 64)
	var got *RecvHandle
	r.eng.After(0, func() {
		a2.Irecv(11, ^uint64(0), buf, 0, func(rh *RecvHandle) { got = rh })
		r.a.Isend(a2.Addr(), 11, payload, 0, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("shm message never arrived")
	}
	if !bytes.Equal(buf[:got.Len], payload) {
		t.Fatal("shm data corrupted")
	}
	if r.stackA.Stats.ShmSent != 1 {
		t.Errorf("ShmSent = %d", r.stackA.Stats.ShmSent)
	}
	if r.stackA.NIC().Stats.PacketsSent != 0 {
		t.Errorf("shm message touched the NIC (%d packets)", r.stackA.NIC().Stats.PacketsSent)
	}
}

func TestSizeOnlyMode(t *testing.T) {
	r := defaultRig(t)
	var got *RecvHandle
	r.eng.After(0, func() {
		r.b.Irecv(2, ^uint64(0), nil, 1<<20, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 2, nil, 1<<20, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("size-only large transfer did not complete")
	}
	if got.Len != 1<<20 {
		t.Errorf("Len = %d, want %d", got.Len, 1<<20)
	}
}

func TestTruncationOnSmallBuffer(t *testing.T) {
	r := defaultRig(t)
	var got *RecvHandle
	r.eng.After(0, func() {
		r.b.Irecv(2, ^uint64(0), nil, 100, func(rh *RecvHandle) { got = rh })
		r.a.Isend(r.b.Addr(), 2, nil, 5000, nil)
	})
	r.eng.Run()
	if got == nil {
		t.Fatal("truncated receive did not complete")
	}
	if got.Len != 100 {
		t.Errorf("Len = %d, want truncation to 100", got.Len)
	}
}

func TestInvalidPacketsDropped(t *testing.T) {
	r := defaultRig(t)
	h := wire.Header{Type: wire.TypeInvalid}
	r.eng.After(0, func() {
		f := wire.NewFrame(wire.NodeMAC(1), wire.NodeMAC(0), h, nil, 128)
		r.sw.Send(f)
	})
	r.eng.Run()
	if r.stackA.Stats.InvalidDropped != 1 {
		t.Errorf("InvalidDropped = %d, want 1", r.stackA.Stats.InvalidDropped)
	}
}

func TestPacketConservation(t *testing.T) {
	r := defaultRig(t)
	const n = 50
	recvd := 0
	r.eng.After(0, func() {
		for i := 0; i < n; i++ {
			r.b.Irecv(uint64(i), ^uint64(0), nil, 64*1024, func(*RecvHandle) { recvd++ })
		}
		for i := 0; i < n; i++ {
			r.a.Isend(r.b.Addr(), uint64(i), nil, 1000*(i+1), nil)
		}
	})
	r.eng.Run()
	if recvd != n {
		t.Fatalf("recvd %d/%d", recvd, n)
	}
	sent := r.stackA.NIC().Stats.PacketsSent + r.stackB.NIC().Stats.PacketsSent
	delivered := r.sw.FramesDelivered()
	if sent != delivered+r.sw.FramesDropped() {
		t.Errorf("conservation violated: sent %d, delivered %d, dropped %d",
			sent, delivered, r.sw.FramesDropped())
	}
	got := r.stackA.NIC().Stats.PacketsReceived + r.stackB.NIC().Stats.PacketsReceived +
		r.stackA.NIC().Stats.RingDrops + r.stackB.NIC().Stats.RingDrops
	if uint64(got) != delivered {
		t.Errorf("NICs saw %d frames, fabric delivered %d", got, delivered)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats, Stats) {
		r := newRig(t, nic.StrategyStream, 75*sim.Microsecond)
		r.sw.SetFault(&fabric.Fault{DropProb: 0.01, DelayProb: 0.05, DelayTime: 10 * sim.Microsecond})
		recvd := 0
		r.eng.After(0, func() {
			for i := 0; i < 40; i++ {
				r.b.Irecv(uint64(i), ^uint64(0), nil, 1<<20, func(*RecvHandle) { recvd++ })
			}
			for i := 0; i < 40; i++ {
				r.a.Isend(r.b.Addr(), uint64(i), nil, 3000*(i+1), nil)
			}
		})
		r.eng.Run()
		return r.eng.Now(), r.stackA.Stats, r.stackB.Stats
	}
	t1, a1, b1 := run()
	t2, a2, b2 := run()
	if t1 != t2 {
		t.Fatalf("end times differ: %d vs %d", t1, t2)
	}
	if a1 != a2 || b1 != b2 {
		t.Fatal("stats differ between identical runs")
	}
}

func TestMarkingPolicyOnWire(t *testing.T) {
	// Verify the sender marks exactly the Section III-B set by sniffing
	// frames at the switch via a counting fault filter.
	r := defaultRig(t)
	marked := map[wire.PacketType]int{}
	unmarked := map[wire.PacketType]int{}
	r.sw.SetFault(&fabric.Fault{Filter: func(f *wire.Frame) bool {
		if f.Marked() {
			marked[f.Header.Type]++
		} else {
			unmarked[f.Header.Type]++
		}
		return false
	}})
	r.eng.After(0, func() {
		r.b.Irecv(1, ^uint64(0), nil, 64, nil)
		r.b.Irecv(2, ^uint64(0), nil, 32*1024, nil)
		r.b.Irecv(3, ^uint64(0), nil, 234*1024, nil)
		r.a.Isend(r.b.Addr(), 1, nil, 64, nil)       // small
		r.a.Isend(r.b.Addr(), 2, nil, 32*1024, nil)  // medium
		r.a.Isend(r.b.Addr(), 3, nil, 234*1024, nil) // large
	})
	r.eng.Run()
	if marked[wire.TypeSmall] != 1 {
		t.Errorf("small marked %d times, want 1", marked[wire.TypeSmall])
	}
	if marked[wire.TypeMediumFrag] != 1 || unmarked[wire.TypeMediumFrag] != 22 {
		t.Errorf("medium marks: %d marked %d unmarked, want 1/22",
			marked[wire.TypeMediumFrag], unmarked[wire.TypeMediumFrag])
	}
	if marked[wire.TypeRendezvous] != 1 {
		t.Errorf("rendezvous marked %d, want 1", marked[wire.TypeRendezvous])
	}
	if marked[wire.TypePullRequest] != 5 {
		t.Errorf("pull requests marked %d, want 5", marked[wire.TypePullRequest])
	}
	// One marked reply per 32-fragment block.
	if marked[wire.TypePullReply] != 5 || unmarked[wire.TypePullReply] != 155 {
		t.Errorf("pull reply marks: %d marked %d unmarked, want 5/155",
			marked[wire.TypePullReply], unmarked[wire.TypePullReply])
	}
	if marked[wire.TypeNotify] != 1 {
		t.Errorf("notify marked %d, want 1", marked[wire.TypeNotify])
	}
	if marked[wire.TypeAck] != 0 {
		t.Errorf("%d acks marked: acks must never be latency-sensitive", marked[wire.TypeAck])
	}
}

func TestMarkShiftMovesMediumMark(t *testing.T) {
	r := defaultRig(t)
	r.stackA.Mark.MediumMarkShift = 3
	var markedIdx []int
	r.sw.SetFault(&fabric.Fault{Filter: func(f *wire.Frame) bool {
		if f.Header.Type == wire.TypeMediumFrag && f.Marked() {
			markedIdx = append(markedIdx, int(f.Header.FragIndex))
		}
		return false
	}})
	r.eng.After(0, func() {
		r.b.Irecv(1, ^uint64(0), nil, 32*1024, nil)
		r.a.Isend(r.b.Addr(), 1, nil, 32*1024, nil)
	})
	r.eng.Run()
	if len(markedIdx) != 1 || markedIdx[0] != 23-1-3 {
		t.Fatalf("marked fragments %v, want [19] (N-1-shift)", markedIdx)
	}
}
