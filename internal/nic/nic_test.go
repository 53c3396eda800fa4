package nic

import (
	"testing"

	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// fakeDriver charges a fixed cost per packet and records processing times.
type fakeDriver struct {
	cost      sim.Time
	processed []*RxDesc
	times     []sim.Time
	cores     []int
	eng       *sim.Engine
}

func (f *fakeDriver) Process(d *RxDesc, core *host.Core, done func()) {
	core.SubmitIRQ(f.cost, false, func() {
		f.processed = append(f.processed, d)
		f.times = append(f.times, f.eng.Now())
		f.cores = append(f.cores, core.ID)
		done()
	})
}

type rig struct {
	eng *sim.Engine
	p   *params.Params
	hst *host.Host
	sw  *fabric.Switch
	nic *NIC
	drv *fakeDriver
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	p := params.Default()
	p.Link.JitterSD = 0
	p.Host.SleepEnabled = false
	hst := host.New(eng, 0, p.Host)
	hst.SetIRQPolicy(host.IRQSingleCore)
	sw := fabric.NewSwitch(eng, p.Link, sim.NewRNG(1))
	n := New(eng, p, hst, sw, wire.NodeMAC(0), cfg)
	drv := &fakeDriver{cost: 500, eng: eng}
	n.SetDriver(drv)
	return &rig{eng: eng, p: p, hst: hst, sw: sw, nic: n, drv: drv}
}

func frame(marked bool, size int) *wire.Frame {
	h := wire.Header{Type: wire.TypeSmall}
	if marked {
		h.Flags = wire.FlagLatencySensitive
	}
	return wire.NewFrame(wire.NodeMAC(1), wire.NodeMAC(0), h, nil, size)
}

// inject delivers a frame to the NIC at time at.
func (r *rig) inject(at sim.Time, f *wire.Frame) {
	r.eng.Schedule(at, func() { r.nic.ReceiveFrame(f) })
}

func TestDisabledInterruptPerPacket(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyDisabled})
	const n = 10
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*50*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if len(r.drv.processed) != n {
		t.Fatalf("processed %d packets, want %d", len(r.drv.processed), n)
	}
	if r.nic.Stats.Interrupts != n {
		t.Errorf("interrupts = %d, want %d (one per packet)", r.nic.Stats.Interrupts, n)
	}
}

func TestTimeoutCoalescesBurst(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyTimeout, Delay: 75 * sim.Microsecond})
	const n = 20
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if len(r.drv.processed) != n {
		t.Fatalf("processed %d packets, want %d", len(r.drv.processed), n)
	}
	if r.nic.Stats.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1 (burst coalesced)", r.nic.Stats.Interrupts)
	}
	if r.nic.Stats.TimeoutFires != 1 {
		t.Errorf("timeout fires = %d, want 1", r.nic.Stats.TimeoutFires)
	}
}

func TestTimeoutLonePacketWaitsFullDelay(t *testing.T) {
	delay := 75 * sim.Microsecond
	r := newRig(t, Config{Strategy: StrategyTimeout, Delay: delay})
	r.inject(0, frame(false, 128))
	r.eng.Run()
	if len(r.drv.times) != 1 {
		t.Fatalf("processed %d packets", len(r.drv.times))
	}
	if r.drv.times[0] < delay {
		t.Errorf("packet processed at %d, before the %d coalescing delay", r.drv.times[0], delay)
	}
	if r.drv.times[0] > delay+10*sim.Microsecond {
		t.Errorf("packet processed at %d, far beyond the delay", r.drv.times[0])
	}
}

func TestDisabledLonePacketFast(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyDisabled})
	r.inject(0, frame(false, 128))
	r.eng.Run()
	if r.drv.times[0] > 5*sim.Microsecond {
		t.Errorf("uncoalesced packet took %d ns to reach the driver", r.drv.times[0])
	}
}

func TestOpenMXMarkedImmediate(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyOpenMX, Delay: 75 * sim.Microsecond})
	r.inject(0, frame(true, 128))
	r.eng.Run()
	if r.drv.times[0] > 5*sim.Microsecond {
		t.Errorf("marked packet took %d ns, want immediate interrupt", r.drv.times[0])
	}
	if r.nic.Stats.MarkedImmediate != 1 {
		t.Errorf("MarkedImmediate = %d, want 1", r.nic.Stats.MarkedImmediate)
	}
}

func TestOpenMXUnmarkedObeysTimeout(t *testing.T) {
	delay := 75 * sim.Microsecond
	r := newRig(t, Config{Strategy: StrategyOpenMX, Delay: delay})
	r.inject(0, frame(false, 128))
	r.eng.Run()
	if r.drv.times[0] < delay {
		t.Errorf("unmarked packet at %d beat the coalescing delay", r.drv.times[0])
	}
}

func TestOpenMXMediumPattern(t *testing.T) {
	// 23 fragments, only the last marked: one interrupt, raised at the
	// last fragment — the whole message processed at once.
	r := newRig(t, Config{Strategy: StrategyOpenMX, Delay: 75 * sim.Microsecond})
	const frags = 23
	gap := 1200 * sim.Nanosecond // wire-rate spacing of 1500B frames
	for i := 0; i < frags; i++ {
		r.inject(sim.Time(i)*gap, frame(i == frags-1, 1468))
	}
	r.eng.Run()
	if len(r.drv.processed) != frags {
		t.Fatalf("processed %d fragments, want %d", len(r.drv.processed), frags)
	}
	if r.nic.Stats.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1 (only last fragment marked)", r.nic.Stats.Interrupts)
	}
	lastArrival := sim.Time(frags-1) * gap
	if r.drv.times[0] < lastArrival {
		t.Errorf("processing began at %d, before last fragment arrived at %d", r.drv.times[0], lastArrival)
	}
	if r.drv.times[0] > lastArrival+10*sim.Microsecond {
		t.Errorf("processing began at %d, long after last fragment at %d", r.drv.times[0], lastArrival)
	}
}

func TestStreamDefersBurstOfMarked(t *testing.T) {
	// Back-to-back marked packets arriving within each other's DMA windows
	// must be merged into one interrupt (Algorithm 2).
	r := newRig(t, Config{Strategy: StrategyStream, Delay: 75 * sim.Microsecond})
	const n = 4
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*200*sim.Nanosecond, frame(true, 128))
	}
	r.eng.Run()
	if len(r.drv.processed) != n {
		t.Fatalf("processed %d, want %d", len(r.drv.processed), n)
	}
	if r.nic.Stats.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1 (stream deferral)", r.nic.Stats.Interrupts)
	}
	if r.nic.Stats.Deferred == 0 {
		t.Error("Deferred counter not incremented")
	}
}

func TestStreamSingleMarkedStillImmediate(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyStream, Delay: 75 * sim.Microsecond})
	r.inject(0, frame(true, 128))
	r.eng.Run()
	if r.drv.times[0] > 5*sim.Microsecond {
		t.Errorf("lone marked packet took %d ns under stream coalescing", r.drv.times[0])
	}
}

func TestStreamSpacedMarkedPacketsInterruptEach(t *testing.T) {
	// Packets spaced far beyond the DMA window cannot be deferred.
	r := newRig(t, Config{Strategy: StrategyStream, Delay: 75 * sim.Microsecond})
	const n = 5
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*50*sim.Microsecond, frame(true, 128))
	}
	r.eng.Run()
	if r.nic.Stats.Interrupts != n {
		t.Errorf("interrupts = %d, want %d (gaps too large to defer)", r.nic.Stats.Interrupts, n)
	}
}

func TestMaskedPollAbsorbsInterrupts(t *testing.T) {
	// Packets arriving while a poll is running are handled by that poll
	// without raising extra interrupts.
	r := newRig(t, Config{Strategy: StrategyDisabled})
	r.drv.cost = 5 * sim.Microsecond // slow handler keeps the poll busy
	for i := 0; i < 8; i++ {
		r.inject(sim.Time(i)*2*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if len(r.drv.processed) != 8 {
		t.Fatalf("processed %d", len(r.drv.processed))
	}
	if r.nic.Stats.Interrupts >= 8 {
		t.Errorf("interrupts = %d: poll masking did not absorb any", r.nic.Stats.Interrupts)
	}
}

func TestNAPIBudgetReschedules(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyTimeout, Delay: 10 * sim.Microsecond})
	n := r.p.Host.NAPIBudget + 10
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*100, frame(false, 128))
	}
	r.eng.Run()
	if len(r.drv.processed) != n {
		t.Fatalf("processed %d, want %d", len(r.drv.processed), n)
	}
	if r.nic.Stats.PollCycles < 2 {
		t.Errorf("poll cycles = %d, want >= 2 (budget exceeded)", r.nic.Stats.PollCycles)
	}
	if r.nic.Stats.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1 (budget resched does not unmask)", r.nic.Stats.Interrupts)
	}
}

func TestRingOverflowDrops(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyTimeout, Delay: sim.Millisecond})
	n := r.p.NIC.RxRingEntries + 50
	for i := 0; i < n; i++ {
		r.inject(sim.Time(i)*10, frame(false, 128))
	}
	r.eng.Run()
	if r.nic.Stats.RingDrops == 0 {
		t.Error("no drops despite ring overflow")
	}
	if got := int(r.nic.Stats.PacketsReceived); got > r.p.NIC.RxRingEntries {
		t.Errorf("accepted %d packets with ring of %d", got, r.p.NIC.RxRingEntries)
	}
}

func TestAdaptiveDelayTracksRate(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyAdaptive, Delay: 20 * sim.Microsecond})
	coal := r.nic.queues[0].coal.(*adaptiveCoalescer)
	// Dense traffic: delay should climb toward the maximum.
	for i := 0; i < 2000; i++ {
		r.inject(sim.Time(i)*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	dense := coal.Delay()
	if dense <= r.p.NIC.AdaptiveMin {
		t.Errorf("dense-traffic delay %d did not grow", dense)
	}
	// Sparse traffic: delay should fall back to the minimum.
	base := r.eng.Now()
	for i := 0; i < 10; i++ {
		r.inject(base+sim.Time(i+1)*300*sim.Microsecond, frame(false, 128))
	}
	r.eng.Run()
	if got := coal.Delay(); got != r.p.NIC.AdaptiveMin {
		t.Errorf("sparse-traffic delay = %d, want min %d", got, r.p.NIC.AdaptiveMin)
	}
}

func TestMultiqueueHashStable(t *testing.T) {
	r := newRig(t, Config{Strategy: StrategyDisabled, Queues: 4})
	f1 := frame(false, 128)
	q := r.nic.queueFor(f1)
	for i := 0; i < 10; i++ {
		if got := r.nic.queueFor(f1); got != q {
			t.Fatal("same channel hashed to different queues")
		}
	}
	// Different endpoints spread across queues.
	seen := map[int]bool{}
	for ep := 0; ep < 32; ep++ {
		h := wire.Header{Type: wire.TypeSmall, SrcEP: uint8(ep)}
		f := wire.NewFrame(wire.NodeMAC(1), wire.NodeMAC(0), h, nil, 64)
		seen[r.nic.queueFor(f)] = true
	}
	if len(seen) < 3 {
		t.Errorf("32 channels hit only %d of 4 queues", len(seen))
	}
}

func TestTxSerializes(t *testing.T) {
	eng := sim.NewEngine()
	p := params.Default()
	p.Link.JitterSD = 0
	hst := host.New(eng, 0, p.Host)
	sw := fabric.NewSwitch(eng, p.Link, sim.NewRNG(1))
	n := New(eng, p, hst, sw, wire.NodeMAC(0), Config{Strategy: StrategyDisabled})
	n.SetDriver(&fakeDriver{eng: eng})
	var arrivals []sim.Time
	sink := New(eng, p, host.New(eng, 1, p.Host), sw, wire.NodeMAC(1), Config{Strategy: StrategyDisabled})
	sink.SetDriver(&fakeDriver{eng: eng, cost: 1})
	_ = sink
	prev := uint64(0)
	eng.After(0, func() {
		for i := 0; i < 5; i++ {
			f := wire.NewFrame(wire.NodeMAC(0), wire.NodeMAC(1), wire.Header{Type: wire.TypeSmall}, nil, 1468)
			n.SendFrame(f)
		}
	})
	eng.Run()
	_ = arrivals
	_ = prev
	if n.Stats.PacketsSent != 5 {
		t.Fatalf("sent %d", n.Stats.PacketsSent)
	}
	if sink.Stats.PacketsReceived != 5 {
		t.Fatalf("peer received %d", sink.Stats.PacketsReceived)
	}
}

func TestInterruptCountInvariant(t *testing.T) {
	// Disabled coalescing never raises fewer interrupts than any other
	// strategy for the same arrival pattern.
	arrivals := make([]sim.Time, 60)
	for i := range arrivals {
		arrivals[i] = sim.Time(i) * 3 * sim.Microsecond
	}
	counts := map[Strategy]uint64{}
	for _, s := range []Strategy{StrategyDisabled, StrategyTimeout, StrategyOpenMX, StrategyStream} {
		r := newRig(t, Config{Strategy: s, Delay: 75 * sim.Microsecond})
		for i, at := range arrivals {
			r.inject(at, frame(i%4 == 3, 128))
		}
		r.eng.Run()
		counts[s] = r.nic.Stats.Interrupts
	}
	for s, c := range counts {
		if s != StrategyDisabled && c > counts[StrategyDisabled] {
			t.Errorf("%v raised %d interrupts, more than disabled's %d", s, c, counts[StrategyDisabled])
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for i, name := range strategyNames {
		s, err := ParseStrategy(name)
		if err != nil || s != Strategy(i) {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

// nopDriver completes packets with a fixed cost and no bookkeeping, so the
// allocation guard below measures only the stack's own hot path.
type nopDriver struct{ cost sim.Time }

func (d *nopDriver) Process(rx *RxDesc, core *host.Core, done func()) {
	core.SubmitIRQ(d.cost, false, done)
}

// The full frame round trip — pooled frame -> tx ring -> fabric -> rx ring
// -> DMA -> interrupt -> NAPI poll -> driver -> release — must allocate at
// most one object per frame in steady state (the allowance covers incidental
// runtime growth; the path itself recycles everything). This is the
// regression guard for the zero-allocation hot path: reintroducing
// per-packet garbage anywhere in nic/fabric/host/sim fails here.
func TestFrameRoundTripAllocGuard(t *testing.T) {
	eng := sim.NewEngine()
	p := params.Default()
	p.Link.JitterSD = 0
	p.Host.SleepEnabled = false
	sw := fabric.NewSwitch(eng, p.Link, sim.NewRNG(1))
	src := New(eng, p, host.New(eng, 0, p.Host), sw, wire.NodeMAC(0), Config{Strategy: StrategyDisabled})
	src.SetDriver(&nopDriver{cost: 100})
	dst := New(eng, p, host.New(eng, 1, p.Host), sw, wire.NodeMAC(1), Config{Strategy: StrategyDisabled})
	dst.SetDriver(&nopDriver{cost: 100})

	pool := wire.NewPool()
	h := wire.Header{Type: wire.TypeSmall}
	roundTrip := func() {
		src.SendFrame(pool.Get(wire.NodeMAC(0), wire.NodeMAC(1), h, nil, 64))
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm every free list on the path
		roundTrip()
	}
	if got := testing.AllocsPerRun(200, roundTrip); got > 1 {
		t.Fatalf("frame round trip allocates %v objects/op in steady state, want <= 1", got)
	}
	if want := uint64(64 + 1 + 200); dst.Stats.PacketsReceived < want {
		t.Fatalf("received %d frames, want >= %d", dst.Stats.PacketsReceived, want)
	}
}
