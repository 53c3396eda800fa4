package wire

import "testing"

func sampleHeader() Header {
	return Header{
		Version:   Version,
		Type:      TypeMediumFrag,
		Flags:     FlagLatencySensitive | FlagLastFragment,
		SrcEP:     3,
		DstEP:     5,
		Length:    1468,
		Seq:       0xDEADBEEF,
		MsgID:     42,
		Match:     0x1122334455667788,
		Aux:       32768,
		FragIndex: 22,
		FragCount: 23,
	}
}

func TestValidate(t *testing.T) {
	h := sampleHeader()
	if err := h.Validate(); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	bad := h
	bad.Version = 99
	if err := bad.Validate(); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	bad = h
	bad.Type = TypeInvalid
	if err := bad.Validate(); err != ErrBadType {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
	bad.Type = typeCount
	if err := bad.Validate(); err != ErrBadType {
		t.Fatalf("err = %v, want ErrBadType", err)
	}
}

func TestMarked(t *testing.T) {
	h := Header{}
	if h.Marked() {
		t.Fatal("unmarked header reports Marked")
	}
	h.Flags = FlagLatencySensitive
	if !h.Marked() {
		t.Fatal("marked header reports !Marked")
	}
}

func TestPacketTypeString(t *testing.T) {
	if TypeSmall.String() != "small" {
		t.Errorf("TypeSmall = %q", TypeSmall.String())
	}
	if TypePullReply.String() != "pull-reply" {
		t.Errorf("TypePullReply = %q", TypePullReply.String())
	}
	if PacketType(200).String() != "type(200)" {
		t.Errorf("unknown type = %q", PacketType(200).String())
	}
}

func TestNodeMACDistinct(t *testing.T) {
	seen := map[MAC]bool{}
	for i := 0; i < 64; i++ {
		m := NodeMAC(i)
		if seen[m] {
			t.Fatalf("duplicate MAC for node %d", i)
		}
		seen[m] = true
	}
	if NodeMAC(0).String() != "02:4d:58:00:00:00" {
		t.Errorf("MAC string = %s", NodeMAC(0))
	}
}

func TestFrameWireBytes(t *testing.T) {
	h := Header{Type: TypeSmall}
	// Tiny frames are padded to the Ethernet minimum of 60 bytes.
	f := NewFrame(NodeMAC(0), NodeMAC(1), h, nil, 0)
	if f.WireBytes() != 60 {
		t.Errorf("empty frame wire bytes = %d, want 60", f.WireBytes())
	}
	f = NewFrame(NodeMAC(0), NodeMAC(1), h, nil, 1468)
	if want := EthernetHeaderLen + HeaderLen + 1468; f.WireBytes() != want {
		t.Errorf("1468B frame wire bytes = %d, want %d", f.WireBytes(), want)
	}
}

func TestNewFrameConsistency(t *testing.T) {
	h := Header{Type: TypeSmall}
	data := []byte("hello world")
	f := NewFrame(NodeMAC(0), NodeMAC(1), h, data, 999)
	if f.PayloadLen != len(data) {
		t.Errorf("PayloadLen = %d, want %d (payload wins over hint)", f.PayloadLen, len(data))
	}
	if int(f.Header.Length) != len(data) {
		t.Errorf("Header.Length = %d, want %d", f.Header.Length, len(data))
	}
	if f.Header.Version != Version {
		t.Errorf("Version not stamped")
	}
}

func TestPoolRecyclesFrames(t *testing.T) {
	p := NewPool()
	h := Header{Type: TypeSmall}
	f := p.Get(NodeMAC(0), NodeMAC(1), h, []byte("abc"), 0)
	if f.PayloadLen != 3 || f.Header.Length != 3 || f.Header.Version != Version {
		t.Fatalf("Get did not normalize frame: %+v", f)
	}
	f.Release()
	g := p.Get(NodeMAC(2), NodeMAC(3), Header{Type: TypeAck}, nil, 0)
	if g != f {
		t.Fatal("pool did not recycle the released frame")
	}
	if g.Payload != nil || g.PayloadLen != 0 || g.Header.Type != TypeAck {
		t.Fatalf("recycled frame not reset: %+v", g)
	}
	if g.Src != NodeMAC(2) || g.Dst != NodeMAC(3) {
		t.Fatalf("recycled frame kept stale addresses: %v -> %v", g.Src, g.Dst)
	}
}

func TestPoolRefCounting(t *testing.T) {
	p := NewPool()
	f := p.Get(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 8)
	f.Ref() // second holder (e.g. retransmit retention)
	f.Release()
	if g := p.Get(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 0); g == f {
		t.Fatal("frame returned to pool while still referenced")
	}
	f.Release()
	// Now it must be recyclable.
	seen := false
	for i := 0; i < 4; i++ {
		if p.Get(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 0) == f {
			seen = true
		}
	}
	if !seen {
		t.Fatal("frame never recycled after final release")
	}
}

func TestUnpooledFrameRefReleaseNoOp(t *testing.T) {
	f := NewFrame(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 4)
	f.Release()
	f.Release() // must not panic without a pool
	f.Ref()
}

func TestPoolOverReleasePanics(t *testing.T) {
	p := NewPool()
	f := p.Get(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 0)
	f.Release()
	// Re-acquire so refs is 1 again, then over-release.
	f = p.Get(NodeMAC(0), NodeMAC(1), Header{Type: TypeSmall}, nil, 0)
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	f.Release()
}

// Steady-state frame round trips through the pool must not allocate.
func TestPoolZeroAllocSteadyState(t *testing.T) {
	p := NewPool()
	h := Header{Type: TypeSmall}
	if got := testing.AllocsPerRun(1000, func() {
		f := p.Get(NodeMAC(0), NodeMAC(1), h, nil, 64)
		f.Release()
	}); got != 0 {
		t.Fatalf("pooled Get+Release allocates %v objects/op, want 0", got)
	}
}
