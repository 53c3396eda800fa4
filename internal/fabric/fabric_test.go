package fabric

import (
	"strings"
	"testing"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

type sink struct {
	frames []*wire.Frame
	times  []sim.Time
	eng    *sim.Engine
}

func (s *sink) ReceiveFrame(f *wire.Frame) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.eng.Now())
}

func testLink() params.Link {
	l := params.Default().Link
	l.JitterSD = 0 // deterministic unless a test wants noise
	return l
}

func setup(t *testing.T, link params.Link) (*sim.Engine, *Switch, *sink, *sink) {
	t.Helper()
	eng := sim.NewEngine()
	sw := NewSwitch(eng, link, sim.NewRNG(1))
	a, b := &sink{eng: eng}, &sink{eng: eng}
	sw.Attach(wire.NodeMAC(0), a)
	sw.Attach(wire.NodeMAC(1), b)
	return eng, sw, a, b
}

func smallFrame(src, dst int, seq uint32) *wire.Frame {
	h := wire.Header{Type: wire.TypeSmall, Seq: seq}
	return wire.NewFrame(wire.NodeMAC(src), wire.NodeMAC(dst), h, nil, 128)
}

func TestDeliveryLatency(t *testing.T) {
	link := testLink()
	eng, sw, _, b := setup(t, link)
	f := smallFrame(0, 1, 0)
	sw.Send(f)
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(b.frames))
	}
	ser := link.SerializationTime(f.WireBytes())
	want := 2*ser + 2*link.PropagationDelay + link.SwitchLatency
	if b.times[0] != want {
		t.Errorf("arrival at %d, want %d", b.times[0], want)
	}
}

func TestSerializationScalesWithSize(t *testing.T) {
	link := testLink()
	small := link.SerializationTime(60)
	big := link.SerializationTime(1546)
	if big <= small {
		t.Fatalf("1546B (%d ns) not slower than 60B (%d ns)", big, small)
	}
	// 10 Gb/s: 1546+24 bytes = 12560 bits = 1256 ns.
	if big != 1256 {
		t.Errorf("1546B serialization = %d ns, want 1256", big)
	}
}

func TestBackToBackFramesSerialize(t *testing.T) {
	link := testLink()
	eng, sw, _, b := setup(t, link)
	const n = 10
	for i := 0; i < n; i++ {
		sw.Send(smallFrame(0, 1, uint32(i)))
	}
	eng.Run()
	if len(b.times) != n {
		t.Fatalf("delivered %d, want %d", len(b.times), n)
	}
	ser := link.SerializationTime(smallFrame(0, 1, 0).WireBytes())
	for i := 1; i < n; i++ {
		gap := b.times[i] - b.times[i-1]
		if gap != ser {
			t.Errorf("frame %d gap %d, want %d (wire-rate spacing)", i, gap, ser)
		}
	}
}

func TestPerFlowFIFOWithoutFaults(t *testing.T) {
	eng, sw, _, b := setup(t, testLink())
	const n = 200
	for i := 0; i < n; i++ {
		sw.Send(smallFrame(0, 1, uint32(i)))
	}
	eng.Run()
	for i, f := range b.frames {
		if f.Header.Seq != uint32(i) {
			t.Fatalf("frame %d has seq %d: fabric reordered without faults", i, f.Header.Seq)
		}
	}
}

func TestEgressContention(t *testing.T) {
	// Two senders targeting one port share its egress: aggregate delivery
	// cannot beat the line rate.
	link := testLink()
	eng := sim.NewEngine()
	sw := NewSwitch(eng, link, sim.NewRNG(1))
	a, b, c := &sink{eng: eng}, &sink{eng: eng}, &sink{eng: eng}
	sw.Attach(wire.NodeMAC(0), a)
	sw.Attach(wire.NodeMAC(1), b)
	sw.Attach(wire.NodeMAC(2), c)
	const n = 50
	for i := 0; i < n; i++ {
		sw.Send(smallFrame(0, 2, uint32(i)))
		sw.Send(smallFrame(1, 2, uint32(1000+i)))
	}
	eng.Run()
	if len(c.times) != 2*n {
		t.Fatalf("delivered %d, want %d", len(c.times), 2*n)
	}
	ser := link.SerializationTime(smallFrame(0, 2, 0).WireBytes())
	span := c.times[len(c.times)-1] - c.times[0]
	if min := ser * sim.Time(2*n-1); span < min {
		t.Errorf("2x%d frames delivered in %d ns, beats line rate (min %d)", n, span, min)
	}
}

func TestDropFault(t *testing.T) {
	eng, sw, _, b := setup(t, testLink())
	sw.SetFault(&Fault{DropProb: 1.0})
	sw.Send(smallFrame(0, 1, 0))
	eng.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered despite DropProb=1")
	}
	if sw.FramesDropped() != 1 {
		t.Errorf("FramesDropped = %d, want 1", sw.FramesDropped())
	}
}

func TestDuplicateFault(t *testing.T) {
	eng, sw, _, b := setup(t, testLink())
	sw.SetFault(&Fault{DupProb: 1.0})
	sw.Send(smallFrame(0, 1, 7))
	eng.Run()
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (duplicate)", len(b.frames))
	}
}

func TestDelayFaultReorders(t *testing.T) {
	eng, sw, _, b := setup(t, testLink())
	sw.SetFault(&Fault{
		DelayProb: 1.0,
		DelayTime: 100 * sim.Microsecond,
		Filter:    func(f *wire.Frame) bool { return f.Header.Seq == 0 },
	})
	sw.Send(smallFrame(0, 1, 0)) // delayed
	sw.Send(smallFrame(0, 1, 1))
	eng.Run()
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(b.frames))
	}
	if b.frames[0].Header.Seq != 1 || b.frames[1].Header.Seq != 0 {
		t.Errorf("delay fault did not reorder: got seqs %d,%d",
			b.frames[0].Header.Seq, b.frames[1].Header.Seq)
	}
}

func TestFaultFilterScopes(t *testing.T) {
	eng, sw, _, b := setup(t, testLink())
	sw.SetFault(&Fault{
		DropProb: 1.0,
		Filter:   func(f *wire.Frame) bool { return f.Header.Type == wire.TypeAck },
	})
	sw.Send(smallFrame(0, 1, 0))
	ack := wire.NewFrame(wire.NodeMAC(0), wire.NodeMAC(1), wire.Header{Type: wire.TypeAck}, nil, 0)
	sw.Send(ack)
	eng.Run()
	if len(b.frames) != 1 || b.frames[0].Header.Type != wire.TypeSmall {
		t.Fatalf("filter did not scope the fault: %d frames", len(b.frames))
	}
}

func TestUnknownPortPanics(t *testing.T) {
	eng, sw, _, _ := setup(t, testLink())
	_ = eng
	defer func() {
		if recover() == nil {
			t.Error("send to unknown MAC did not panic")
		}
	}()
	sw.Send(smallFrame(0, 9, 0))
}

func TestDuplicateAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, testLink(), sim.NewRNG(1))
	sw.Attach(wire.NodeMAC(0), &sink{eng: eng})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	sw.Attach(wire.NodeMAC(0), &sink{eng: eng})
}

// TestAttachRejectsForeignMAC checks that a MAC sharing node 1's node bytes
// but not its prefix cannot take node 1's port slot.
func TestAttachRejectsForeignMAC(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, testLink(), sim.NewRNG(1))
	foreign := wire.NodeMAC(1)
	foreign[0] = 0x06
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, foreign.String()) {
			t.Errorf("Attach(%s) panicked with %v, want a message naming the MAC", foreign, r)
		}
	}()
	sw.Attach(foreign, &sink{eng: eng})
}

func TestJitterPerturbsArrivals(t *testing.T) {
	link := testLink()
	link.JitterSD = 200
	eng, sw, _, b := setup(t, link)
	for i := 0; i < 20; i++ {
		sw.Send(smallFrame(0, 1, uint32(i)))
	}
	eng.Run()
	ser := link.SerializationTime(smallFrame(0, 1, 0).WireBytes())
	varied := false
	for i := 1; i < len(b.times); i++ {
		if b.times[i]-b.times[i-1] != ser {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter produced perfectly regular arrivals")
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, sw, _, _ := setup(t, testLink())
	for i := 0; i < 5; i++ {
		sw.Send(smallFrame(0, 1, uint32(i)))
	}
	eng.Run()
	if sw.FramesDelivered() != 5 {
		t.Errorf("FramesDelivered = %d, want 5", sw.FramesDelivered())
	}
	if st := sw.PortStats(wire.NodeMAC(1)); st.BytesDelivered == 0 {
		t.Error("PortStats.BytesDelivered = 0")
	}
}
