package fabric

import (
	"slices"
	"testing"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// queuedSwitch builds a switch with bounded egress queues and n attached
// sinks.
func queuedSwitch(t *testing.T, topo Topology, n int) (*sim.Engine, *Switch, []*sink) {
	t.Helper()
	eng := sim.NewEngine()
	sw := NewSwitch(eng, testLink(), sim.NewRNG(1))
	topo.Kind = TopologyOutputQueued
	sw.SetTopology(topo)
	sinks := make([]*sink, n)
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		sw.Attach(wire.NodeMAC(i), sinks[i])
	}
	return eng, sw, sinks
}

func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		ok   bool
	}{
		{"zero value (direct)", Topology{}, true},
		{"output-queued default", Topology{Kind: TopologyOutputQueued}, true},
		{"explicit bound", Topology{Kind: TopologyOutputQueued, EgressQueueFrames: 4}, true},
		{"unknown kind", Topology{Kind: TopologyKind(9)}, false},
		{"negative kind", Topology{Kind: TopologyKind(-1)}, false},
		{"negative bound", Topology{Kind: TopologyOutputQueued, EgressQueueFrames: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.topo.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestQueuedMatchesDirectWhenUncongested checks a bounded port delivers an
// isolated frame at exactly the unbounded port's latency (see
// TestDeliveryLatency): the bound only changes behaviour under contention.
func TestQueuedMatchesDirectWhenUncongested(t *testing.T) {
	link := testLink()
	eng, sw, sinks := queuedSwitch(t, Topology{}, 2)
	f := smallFrame(0, 1, 0)
	sw.Send(f)
	eng.Run()
	if len(sinks[1].frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(sinks[1].frames))
	}
	ser := link.SerializationTime(f.WireBytes())
	want := 2*ser + 2*link.PropagationDelay + link.SwitchLatency
	if sinks[1].times[0] != want {
		t.Errorf("arrival at %d, want %d (direct-model latency)", sinks[1].times[0], want)
	}
}

// TestQueuedEgressKeepsLineRate checks two senders converging on one port
// drain at exactly the egress line rate, FIFO, with no loss while the
// burst fits the buffer.
func TestQueuedEgressKeepsLineRate(t *testing.T) {
	link := testLink()
	eng, sw, sinks := queuedSwitch(t, Topology{EgressQueueFrames: 256}, 3)
	const n = 40
	for i := 0; i < n; i++ {
		sw.Send(smallFrame(0, 2, uint32(i)))
		sw.Send(smallFrame(1, 2, uint32(1000+i)))
	}
	eng.Run()
	if got := len(sinks[2].times); got != 2*n {
		t.Fatalf("delivered %d, want %d", got, 2*n)
	}
	ser := link.SerializationTime(smallFrame(0, 2, 0).WireBytes())
	for i := 1; i < len(sinks[2].times); i++ {
		if gap := sinks[2].times[i] - sinks[2].times[i-1]; gap < ser {
			t.Fatalf("frames %d..%d delivered %d ns apart, beats egress line rate %d", i-1, i, gap, ser)
		}
	}
	st := sw.PortStats(wire.NodeMAC(2))
	if st.Drops != 0 {
		t.Errorf("Drops = %d, want 0 (burst fits the buffer)", st.Drops)
	}
	if st.Enqueued != 2*n || st.FramesDelivered != 2*n {
		t.Errorf("Enqueued/Delivered = %d/%d, want %d/%d", st.Enqueued, st.FramesDelivered, 2*n, 2*n)
	}
	if st.MaxQueueFrames == 0 {
		t.Error("MaxQueueFrames = 0: contention never queued")
	}
	if st.QueueWait == 0 {
		t.Error("QueueWait = 0: contention was free")
	}
}

// TestUnboundedQueueNeverDrops floods a TopologyDirect port at 2:1 for
// long enough that its queue outgrows DefaultEgressQueueFrames: nothing
// is dropped and every frame is delivered.
func TestUnboundedQueueNeverDrops(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, testLink(), sim.NewRNG(1))
	sinks := make([]*sink, 3)
	for i := range sinks {
		sinks[i] = &sink{eng: eng}
		sw.Attach(wire.NodeMAC(i), sinks[i])
	}
	const n = 400
	for i := 0; i < n; i++ {
		sw.Send(smallFrame(0, 2, uint32(i)))
		sw.Send(smallFrame(1, 2, uint32(1000+i)))
	}
	eng.Run()
	st := sw.PortStats(wire.NodeMAC(2))
	if st.Drops != 0 || st.FramesDelivered != 2*n {
		t.Errorf("Drops/Delivered = %d/%d, want 0/%d", st.Drops, st.FramesDelivered, 2*n)
	}
	if st.MaxQueueFrames <= DefaultEgressQueueFrames {
		t.Errorf("MaxQueueFrames = %d, want past the default bound %d", st.MaxQueueFrames, DefaultEgressQueueFrames)
	}
	if la := sw.Lookahead(); la <= 0 {
		t.Errorf("Lookahead() = %d, want > 0", la)
	}
}

// TestDropTailBoundsTheQueue floods a port far beyond its buffer and checks
// the excess is dropped, the survivors arrive in FIFO order, and occupancy
// never exceeds the bound.
func TestDropTailBoundsTheQueue(t *testing.T) {
	const qcap = 8
	eng, sw, sinks := queuedSwitch(t, Topology{EgressQueueFrames: qcap}, 3)
	const n = 200
	for i := 0; i < n; i++ {
		// Two ingress ports at full rate into one egress port: a 2:1
		// overload that must overflow an 8-frame buffer.
		sw.Send(smallFrame(0, 2, uint32(i)))
		sw.Send(smallFrame(1, 2, uint32(1000+i)))
	}
	eng.Run()
	st := sw.PortStats(wire.NodeMAC(2))
	if st.Drops == 0 {
		t.Fatal("no drops under 2:1 overload of an 8-frame buffer")
	}
	if st.MaxQueueFrames > qcap {
		t.Errorf("MaxQueueFrames = %d, exceeds bound %d", st.MaxQueueFrames, qcap)
	}
	if got := uint64(len(sinks[2].frames)); got != st.FramesDelivered {
		t.Errorf("sink saw %d frames, port counted %d", got, st.FramesDelivered)
	}
	if st.Enqueued+st.Drops != 2*n {
		t.Errorf("Enqueued(%d) + Drops(%d) != offered(%d)", st.Enqueued, st.Drops, 2*n)
	}
	// Per-flow FIFO: each flow's surviving sequence numbers stay ordered.
	last0, last1 := -1, -1
	for _, f := range sinks[2].frames {
		seq := int(f.Header.Seq)
		if seq < 1000 {
			if seq <= last0 {
				t.Fatalf("flow 0 reordered: %d after %d", seq, last0)
			}
			last0 = seq
		} else {
			if seq <= last1 {
				t.Fatalf("flow 1 reordered: %d after %d", seq, last1)
			}
			last1 = seq
		}
	}
}

// TestDropTailReleasesFrames checks drop-tail rejections release the pooled
// frame reference (the ownership rule in the package comment).
func TestDropTailReleasesFrames(t *testing.T) {
	eng, sw, _ := queuedSwitch(t, Topology{EgressQueueFrames: 2}, 3)
	// Two senders at full rate into one port overflow the 2-frame buffer.
	pool := wire.NewPool()
	const n = 100
	for i := 0; i < n; i++ {
		h := wire.Header{Type: wire.TypeSmall, Seq: uint32(i)}
		sw.Send(pool.Get(wire.NodeMAC(i%2), wire.NodeMAC(2), h, nil, 128))
	}
	eng.Run()
	st := sw.PortStats(wire.NodeMAC(2))
	if st.Drops == 0 {
		t.Fatal("expected drops from a 2-frame buffer")
	}
	// Every frame ended its journey (delivered or dropped); re-Getting n
	// frames from the pool must not find any still referenced. A leaked
	// reference would panic wire.Release during later recycling, and a
	// double release panics immediately, so surviving to here with matching
	// counters is the check.
	if st.FramesDelivered+st.Drops != n {
		t.Errorf("delivered(%d) + dropped(%d) != sent(%d)", st.FramesDelivered, st.Drops, n)
	}
}

// TestQueuedFaultInjection checks drops and duplicates behave in the
// output-queued model: drops never occupy buffer, duplicates deliver twice.
func TestQueuedFaultInjection(t *testing.T) {
	eng, sw, sinks := queuedSwitch(t, Topology{}, 2)
	sw.SetFault(&Fault{DropProb: 1.0})
	sw.Send(smallFrame(0, 1, 0))
	eng.Run()
	if len(sinks[1].frames) != 0 || sw.FramesDropped() != 1 {
		t.Fatalf("fault drop: delivered=%d dropped=%d", len(sinks[1].frames), sw.FramesDropped())
	}
	if st := sw.PortStats(wire.NodeMAC(1)); st.Enqueued != 0 {
		t.Errorf("fault-dropped frame was enqueued (%d)", st.Enqueued)
	}

	sw.SetFault(&Fault{DupProb: 1.0})
	sw.Send(smallFrame(0, 1, 7))
	eng.Run()
	if len(sinks[1].frames) != 2 {
		t.Errorf("duplicate fault delivered %d frames, want 2", len(sinks[1].frames))
	}
}

// TestQueuedNoAllocSteadyState checks the queued hot path recycles its
// records: a long unidirectional flow must not allocate per frame.
func TestQueuedNoAllocSteadyState(t *testing.T) {
	eng, sw, sinks := queuedSwitch(t, Topology{EgressQueueFrames: 64}, 2)
	// Warm up the free lists and queue backing array.
	for i := 0; i < 100; i++ {
		sw.Send(smallFrame(0, 1, uint32(i)))
	}
	eng.Run()
	warm := len(sinks[1].frames)
	sinks[1].frames = sinks[1].frames[:0]
	sinks[1].times = sinks[1].times[:0]
	_ = warm

	avg := testing.AllocsPerRun(50, func() {
		sw.Send(smallFrame(0, 1, 1)) // NewFrame itself allocates the frame...
		eng.Run()
	})
	// ...so the budget is the frame allocation plus the sink's append; the
	// switch's own records must all come from free lists.
	if avg > 3 {
		t.Errorf("queued forwarding allocates %.1f objects/frame in steady state", avg)
	}
}

func TestTopologyKindStrings(t *testing.T) {
	if TopologyDirect.String() != "direct" || TopologyOutputQueued.String() != "output-queued" {
		t.Errorf("kind names: %q, %q", TopologyDirect, TopologyOutputQueued)
	}
	if TopologyKind(-3).String() != "topology(-3)" {
		t.Errorf("negative kind: %q", TopologyKind(-3))
	}
}

// refPort is the output-queued egress port written as a transmit state
// machine: a frame is stamped when the queue admits it, popped when the
// port starts clocking it out, and an event one serialization time later
// frees the port for the next. TestQueuedPortMatchesReference holds the
// switch's port to it.
type refPort struct {
	eng      *sim.Engine
	link     params.Link
	rng      *sim.RNG
	qcap     int
	q        sim.Queue[refEntry]
	busy     bool
	stats    PortStats
	arrivals map[uint32]sim.Time
}

type refEntry struct {
	f  *wire.Frame
	at sim.Time
}

func (r *refPort) enqueue(x any) {
	f := x.(*wire.Frame)
	if r.q.Len() >= r.qcap {
		r.stats.Drops++
		return
	}
	r.q.PushBack(refEntry{f: f, at: r.eng.Now()})
	r.stats.Enqueued++
	r.stats.MaxQueueFrames = max(r.stats.MaxQueueFrames, r.q.Len())
	if !r.busy {
		r.transmit()
	}
}

func (r *refPort) transmit() {
	e := r.q.PopFront()
	now := r.eng.Now()
	r.stats.QueueWait += now - e.at
	r.busy = true
	ser := r.link.SerializationTime(e.f.WireBytes())
	r.eng.ScheduleArg(now+ser+r.link.PropagationDelay+r.rng.Jitter(0, r.link.JitterSD), r.deliver, e.f)
	r.eng.ScheduleArg(now+ser, r.transmitted, nil)
}

func (r *refPort) transmitted(any) {
	r.busy = false
	if r.q.Len() > 0 {
		r.transmit()
	}
}

func (r *refPort) deliver(x any) {
	f := x.(*wire.Frame)
	r.stats.FramesDelivered++
	r.stats.BytesDelivered += uint64(f.WireBytes())
	r.arrivals[f.Header.Seq] = r.eng.Now()
}

// TestQueuedPortMatchesReference offers the same frames to the switch's
// egress port and to refPort: same instants, same pri keys, same sizes.
// Every frame must meet the same fate at the same arrival time, the
// PortStats must agree, and so must QueueLen right after every offer.
// Offers from up to four sources share instants with each other and with
// transmit completions, where the order of admission and release decides
// drop-tail.
func TestQueuedPortMatchesReference(t *testing.T) {
	link := params.Default().Link // with jitter: both sides draw it per frame, in FIFO order
	sizes := []int{0, 64, 512, 1472}
	gen := sim.NewRNG(42)
	for trial := 0; trial < 300; trial++ {
		qcap := 1 + gen.Intn(8)
		nsrc := 1 + gen.Intn(4)
		seed := gen.Uint64()
		mac := wire.NodeMAC(0)

		eng := sim.NewEngine()
		sw := NewSwitch(eng, link, sim.NewRNG(seed))
		sw.SetTopology(Topology{Kind: TopologyOutputQueued, EgressQueueFrames: qcap})
		out := &sink{eng: eng}
		sw.Attach(mac, out)
		p := sw.ports[mac.NodeIndex()]

		reng := sim.NewEngine()
		ref := &refPort{
			eng:  reng,
			link: link,
			// Node 0's port stream, derived from the switch seed as Attach does.
			rng:      sim.NewRNG(seed).Derive(0xF0 << 56),
			qcap:     qcap,
			arrivals: map[uint32]sim.Time{},
		}

		var qlen, refQlen []int
		msgSeq := make([]uint64, nsrc)
		at, lastSer := sim.Time(0), sim.Time(0)
		const offers = 48
		for i := 0; i < offers; i++ {
			switch gen.Intn(4) {
			case 1: // lands where an idle port's last frame finishes
				at += lastSer
			case 2:
				at += sim.Time(gen.Intn(3000))
			case 3:
				at += sim.Time(gen.Intn(200))
			}
			src := gen.Intn(nsrc)
			msgSeq[src]++
			pri := uint64(src+1)<<40 | msgSeq[src]
			size := sizes[gen.Intn(len(sizes))]
			h := wire.Header{Type: wire.TypeSmall, Seq: uint32(i)}
			f := wire.NewFrame(wire.NodeMAC(src+1), mac, h, nil, size)
			lastSer = link.SerializationTime(f.WireBytes())

			eng.ScheduleArgPri(at, pri, p.enqueueFn, f)
			eng.ScheduleArgPri(at, pri, func(any) { qlen = append(qlen, sw.QueueLen(mac)) }, nil)
			rf := wire.NewFrame(wire.NodeMAC(src+1), mac, h, nil, size)
			reng.ScheduleArgPri(at, pri, ref.enqueue, rf)
			reng.ScheduleArgPri(at, pri, func(any) { refQlen = append(refQlen, ref.q.Len()) }, nil)
		}
		eng.Run()
		reng.Run()

		got := map[uint32]sim.Time{}
		for k, f := range out.frames {
			got[f.Header.Seq] = out.times[k]
		}
		for i := uint32(0); i < offers; i++ {
			g, gok := got[i]
			w, wok := ref.arrivals[i]
			if gok != wok || g != w {
				t.Fatalf("trial %d (qcap %d, %d sources): frame %d delivered=%v at %d, reference delivered=%v at %d",
					trial, qcap, nsrc, i, gok, g, wok, w)
			}
		}
		if st := sw.PortStats(mac); st != ref.stats {
			t.Fatalf("trial %d (qcap %d, %d sources): PortStats %+v, reference %+v", trial, qcap, nsrc, st, ref.stats)
		}
		if !slices.Equal(qlen, refQlen) {
			t.Fatalf("trial %d (qcap %d, %d sources): QueueLen after each offer %v, reference %v", trial, qcap, nsrc, qlen, refQlen)
		}
	}
}
