package main

import (
	"time"

	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/params"
	"openmxsim/internal/proc"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// micro is one layer microbenchmark over public functions: prepare builds
// a rig and returns an op that performs n operations and a release that
// tears the rig down. moves names the workload whose wall time it should
// move.
type micro struct {
	name, moves string
	prepare     func() (op func(n int), release func())
}

// micros are reported under every workload, since the metric list is
// shared; the traced run marks the ones its workload should move.
var micros = []micro{
	{"proc.handoff_ns", "nas-lu", procHandoff},
	{"sim.schedule_step_ns", "nas-is", scheduleStep},
	{"fabric.send_direct_ns", "nas-is", switchSend(fabric.TopologyDirect)},
	{"fabric.send_queued_ns", "incast-64", switchSend(fabric.TopologyOutputQueued)},
	{"nic.rx_frame_ns", "nas-is", nicReceive},
	{"host.irq_task_ns", "nas-is", irqTask},
	{"wire.frame_roundtrip_ns", "incast-64", frameRoundTrip},
}

const (
	// microSkip warm-up operations run before any timing and are discarded
	// (osu_latency's skip).
	microSkip = 1000
	// microBatches timed batches are run; the median batch is reported.
	microBatches = 9
)

// measureMicro returns m's median ns per operation. As osu_latency does,
// it discards warm-up operations and scales the loop count, here until a
// batch lasts about batch.
func measureMicro(m micro, batch time.Duration) float64 {
	op, release := m.prepare()
	defer release()
	op(microSkip)
	n := 64
	for {
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d >= batch/2 {
			n = max(1, int(float64(n)*float64(batch)/float64(d)))
			break
		}
		n *= 2
	}
	per := make([]float64, microBatches)
	for i := range per {
		t0 := time.Now()
		op(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// procHandoff measures one engine → rank → engine round trip: Wake resumes
// a rank blocked in Wait, which re-checks its condition and blocks again.
func procHandoff() (func(int), func()) {
	eng := sim.NewEngine()
	p := proc.New("bench")
	ready, stop := false, false
	p.Start(eng, 0, func() {
		for !stop {
			p.Wait(func() bool { return ready })
			ready = false
		}
	})
	eng.Run() // the rank starts and parks in Wait
	op := func(n int) {
		for i := 0; i < n; i++ {
			ready = true
			p.Wake()
		}
	}
	return op, func() {
		stop, ready = true, true
		p.Wake()
	}
}

// scheduleStep measures ScheduleArg plus Step with 256 events pending at
// horizons from wire events (ns) to coalescing and sleep timers (µs, ms),
// so every timing-wheel level sees traffic.
func scheduleStep() (func(int), func()) {
	eng := sim.NewEngine()
	horizons := [...]sim.Time{3, 250, 5 * sim.Microsecond, 75 * sim.Microsecond, 3 * sim.Millisecond}
	fn := func(any) {}
	k := 0
	schedule := func() {
		k++
		eng.ScheduleArg(eng.Now()+horizons[k%len(horizons)], fn, nil)
	}
	for i := 0; i < 256; i++ {
		schedule()
	}
	op := func(n int) {
		for i := 0; i < n; i++ {
			schedule()
			eng.Step()
		}
	}
	return op, func() {}
}

// releaser is a fabric port that drops every frame it receives.
type releaser struct{}

func (releaser) ReceiveFrame(f *wire.Frame) { f.Release() }

// switchSend measures one 128 B frame sent through the switch and
// delivered, on the given topology.
func switchSend(kind fabric.TopologyKind) func() (func(int), func()) {
	return func() (func(int), func()) {
		eng := sim.NewEngine()
		sw := fabric.NewSwitch(eng, params.Default().Link, sim.NewRNG(1))
		sw.SetTopology(fabric.Topology{Kind: kind, EgressQueueFrames: 64})
		src, dst := wire.NodeMAC(0), wire.NodeMAC(1)
		sw.Attach(src, releaser{})
		sw.Attach(dst, releaser{})
		pool := wire.NewPool()
		h := wire.Header{Type: wire.TypeSmall}
		op := func(n int) {
			for i := 0; i < n; i++ {
				sw.Send(pool.Get(src, dst, h, nil, 128))
				eng.Run()
			}
		}
		return op, func() {}
	}
}

// stubDriver charges a fixed IRQ-context cost per descriptor.
type stubDriver struct{ cost sim.Time }

func (d stubDriver) Process(_ *nic.RxDesc, core *host.Core, done func()) {
	core.SubmitIRQ(d.cost, false, done)
}

// nicReceive measures one 128 B frame from arrival at the NIC through
// firmware, DMA, timeout coalescing, the interrupt and the NAPI poll.
func nicReceive() (func(int), func()) {
	eng := sim.NewEngine()
	p := params.Default()
	h := host.New(eng, 0, p.Host)
	sw := fabric.NewSwitch(eng, p.Link, sim.NewRNG(1))
	n := nic.New(eng, p, h, sw, wire.NodeMAC(0), nic.Config{Strategy: nic.StrategyTimeout, Delay: 75 * sim.Microsecond})
	n.SetDriver(stubDriver{cost: 500})
	pool := wire.NewPool()
	src := wire.NodeMAC(1)
	hdr := wire.Header{Type: wire.TypeSmall}
	op := func(k int) {
		for i := 0; i < k; i++ {
			n.ReceiveFrame(pool.Get(src, n.MAC(), hdr, nil, 128))
			eng.Run()
		}
	}
	return op, func() {}
}

// irqTask measures one interrupt-context task on a core that sleeps in
// between, so each task also pays the wake-up path.
func irqTask() (func(int), func()) {
	eng := sim.NewEngine()
	p := params.Default()
	core := host.New(eng, 0, p.Host).Cores[0]
	fn := func(any) {}
	op := func(n int) {
		for i := 0; i < n; i++ {
			core.SubmitIRQArg(p.Host.IRQEntry, true, fn, nil)
			eng.Run()
		}
	}
	return op, func() {}
}

// frameRoundTrip measures Pool.Get plus Release on a pool shared across
// shards, as in the sharded incast-64 cluster.
func frameRoundTrip() (func(int), func()) {
	pool := wire.NewPool()
	pool.Share()
	src, dst := wire.NodeMAC(1), wire.NodeMAC(0)
	h := wire.Header{Type: wire.TypeSmall}
	op := func(n int) {
		for i := 0; i < n; i++ {
			pool.Get(src, dst, h, nil, 128).Release()
		}
	}
	return op, func() {}
}
