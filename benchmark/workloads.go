package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

// workloadNames lists the workloads in the order run.sh runs them.
var workloadNames = []string{"nas-lu", "nas-is", "incast-64", "sweep-grid"}

// sweepWorkers is the worker count sweep-grid checks its results at, one
// per core of the two-core machine the load is sized for. Its timed reps
// run one worker: with two, the pool's dynamic dispatch absorbs contention
// on one core, which a calibration cannot mimic, and runs spread by over
// 5%.
const sweepWorkers = 2

// scale sizes a workload.
type scale string

const (
	// benchScale is the size timed: reps of 0.1 to 0.6 s, so that a run
	// holds many of them. Where the configuration users run takes longer, a
	// rep runs a shortened form of it, whose CPU shares per layer match the
	// full one's (README.md compares them).
	benchScale scale = "bench"
	// userScale is the configuration users run, for comparing its per-layer
	// metrics with the shortened form's.
	userScale scale = "user"
	// toyScale is small enough for the unit test to run every workload in
	// well under a second.
	toyScale scale = "toy"
)

// workload is one benchmark input: a simulation built and run through the
// layers' public functions. Every rep builds everything afresh, so reps are
// independent and must produce identical outcomes.
type workload struct {
	name string
	seed uint64
	// procs is the GOMAXPROCS the workload runs at. Every timed rep keeps
	// one goroutine busy: NAS ranks alternate strictly with the engine, and
	// a second P would only add cross-thread wake-ups to every rank
	// handoff. Only incast-64 takes the second core of the two-core machine
	// the load is sized for, for the two shards of its alternative run.
	procs int
	// ops is how many ops one rep attempts: the rep itself, or one per grid
	// point for sweep-grid.
	ops int
	// setup builds one rep up to its first simulated event and returns the
	// function that runs it.
	setup func() func() outcome
	// probe, when set, is the construction-only pass timed as setup_s in
	// place of setup (sweep.Run builds its clusters inside the run).
	probe func()
	// check, when set, runs the benchmark's own layer-level drive and the
	// library's entry point on the same configuration and reports any
	// difference. Each process runs it once, before its reps.
	check func() error
	// alt, when set, runs the same inputs with more parallelism; its
	// outcome detail must equal a rep's. altMetric names the per-layer
	// metric that reports alt's speed-up: the rep's time over alt's.
	alt       func() func() outcome
	altMetric string
	// cfg is the cluster configuration cluster.new_us times.
	cfg cluster.Config
}

// outcome is what one rep produced.
type outcome struct {
	// detail is the deterministic result: hashed into sim_digest and
	// compared with the alternative parallelism's.
	detail any
	counts counts
	// failed counts failed ops; err describes the first failure.
	failed int
	err    error
}

// counts are a rep's exact per-layer work counts, read from the layers'
// public counters once the engines are idle. A perf-only change must leave
// every one of them unchanged.
type counts struct {
	Events      uint64 `json:"events"`
	Interrupts  uint64 `json:"interrupts"`
	RxPackets   uint64 `json:"rx_packets"`
	Wakeups     uint64 `json:"wakeups"`
	Frames      uint64 `json:"frames"`
	Drops       uint64 `json:"drops"`
	Enqueued    uint64 `json:"enqueued"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
	Retransmits uint64 `json:"retransmits"`
}

func (k *counts) add(o counts) {
	k.Events += o.Events
	k.Interrupts += o.Interrupts
	k.RxPackets += o.RxPackets
	k.Wakeups += o.Wakeups
	k.Frames += o.Frames
	k.Drops += o.Drops
	k.Enqueued += o.Enqueued
	k.QueueWaitNS += o.QueueWaitNS
	k.Retransmits += o.Retransmits
}

// clusterCounts reads a cluster's counters; its engines must be idle.
func clusterCounts(cl *cluster.Cluster) counts {
	var k counts
	for _, e := range cl.Engines {
		k.Events += e.Executed
	}
	for i, n := range cl.NICs {
		k.Interrupts += n.Stats.Interrupts
		k.RxPackets += n.Stats.PacketsReceived
		k.Wakeups += cl.Hosts[i].Stats().Wakeups
		k.Retransmits += cl.Stacks[i].Stats.Retransmits
		ps := cl.PortStats(i)
		k.Enqueued += ps.Enqueued
		k.QueueWaitNS += ps.QueueWait
	}
	k.Frames = cl.Switch.FramesDelivered()
	k.Drops = cl.Switch.FramesDropped()
	return k
}

// checker counts ops and collects the problems the checks find.
type checker struct {
	w *workload
	// first is the first rep's detail.
	first     any
	digest    [sha256.Size]byte
	reps      int
	attempted int
	failed    int
	problems  []string
}

// newChecker returns w's checker, after running w's check.
func newChecker(w *workload) *checker {
	c := &checker{w: w}
	if w.check != nil {
		if err := w.check(); err != nil {
			c.problem("%v", err)
		}
	}
	return c
}

func (c *checker) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(c.w.name+": "+format, args...))
}

// count adds one rep's ops and failures.
func (c *checker) count(out outcome) {
	c.reps++
	c.attempted += c.w.ops
	c.failed += out.failed
	if out.err != nil {
		c.problem("rep %d: %v", c.reps, out.err)
	}
}

// record checks one rep: its digest must equal the first rep's.
func (c *checker) record(out outcome) {
	c.count(out)
	b, err := json.Marshal(struct {
		Detail any    `json:"detail"`
		Counts counts `json:"counts"`
	}{out.detail, out.counts})
	if err != nil {
		c.problem("rep %d: encoding the outcome: %v", c.reps, err)
		return
	}
	d := sha256.Sum256(b)
	if c.first == nil {
		c.digest, c.first = d, out.detail
		return
	}
	if d != c.digest {
		c.problem("rep %d: sim_digest %x differs from the first rep's %x", c.reps, d, c.digest)
	}
}

// recordAlt checks a rep of the workload's alternative parallelism, whose
// result must equal the first rep's.
func (c *checker) recordAlt(out outcome) {
	c.count(out)
	if !reflect.DeepEqual(out.detail, c.first) {
		c.problem("rep %d: the result with other parallelism differs from the timed reps'", c.reps)
	}
}

// newWorkload returns the named workload at the given scale, with inputs
// made from seed.
func newWorkload(name string, seed uint64, sc scale) (*workload, error) {
	switch sc {
	case benchScale, userScale, toyScale:
	default:
		return nil, fmt.Errorf("unknown scale %q (have %s, %s, %s)", sc, benchScale, userScale, toyScale)
	}
	switch name {
	case "nas-lu":
		return nasWorkload(name, "lu", 20, seed, sc, paper(seed))
	case "nas-is":
		disabled := paper(seed)
		disabled.Strategy = nic.StrategyDisabled
		return nasWorkload(name, "is", 1, seed, sc, paper(seed), disabled)
	case "incast-64":
		return incastWorkload(seed, sc), nil
	case "sweep-grid":
		return sweepWorkload(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// paper is the paper's platform (2 nodes, timeout coalescing at 75 µs).
func paper(seed uint64) cluster.Config {
	cfg := cluster.Paper()
	cfg.Seed = seed
	return cfg
}

// nasWorkload runs a NAS kernel's class C run on 16 ranks, once per
// configuration; one rep covers them all. At the bench scale a rep runs
// the first iters iterations of the run, at the user scale all of them.
// The toy size is two iterations of class S on 4 ranks.
func nasWorkload(name, kernel string, iters int, seed uint64, sc scale, cfgs ...cluster.Config) (*workload, error) {
	class, ranks := byte('C'), 16
	switch sc {
	case userScale:
		iters = 0
	case toyScale:
		class, ranks, iters = 'S', 4, 2
	}
	// nas.Get supplies the communicators; small is the whole class S run
	// the restated body is checked against.
	full, err := nas.Get(kernel, class, ranks)
	if err != nil {
		return nil, err
	}
	small, err := nas.Get(kernel, 'S', ranks)
	if err != nil {
		return nil, err
	}
	restate := func(wl *nas.Workload, iters int) *nas.Workload {
		r := *wl
		r.Body = kernelBody(kernel, wl.Class, iters)
		return &r
	}
	wl, restated := restate(full, iters), restate(small, 0)
	return &workload{
		name: name, seed: seed, procs: 1, ops: 1, cfg: cfgs[0],
		check: func() error {
			for _, cfg := range cfgs {
				want, err := nas.Run(cfg, small)
				if err != nil {
					return err
				}
				got := nasDrive(cfg, restated)()
				if got.err != nil {
					return got.err
				}
				if !reflect.DeepEqual(got.detail, want) {
					return fmt.Errorf("the restated %s body differs from nas.Run on %s", kernel, small.FullName())
				}
			}
			return nil
		},
		setup: func() func() outcome {
			runs := make([]func() outcome, len(cfgs))
			for i, cfg := range cfgs {
				runs[i] = nasDrive(cfg, wl)
			}
			return func() outcome {
				var out outcome
				results := make([]any, len(runs))
				for i, run := range runs {
					o := run()
					results[i] = o.detail
					out.counts.add(o.counts)
					if o.err != nil && out.err == nil {
						out.failed, out.err = 1, o.err
					}
				}
				out.detail = results
				return out
			}
		},
	}, nil
}

// nasDrive builds the cluster, endpoints, world and communicators nas.Run
// builds and returns the run, which yields the same result nas.Run returns
// plus the layer counts nas.Run does not expose.
func nasDrive(cfg cluster.Config, wl *nas.Workload) func() outcome {
	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpoints(wl.Ranks/cfg.Nodes))
	cm := wl.Setup(w)
	return func() outcome {
		elapsed, err := w.Run(func(r *mpi.Rank) { wl.Body(r, w, cm) })
		out := outcome{counts: clusterCounts(cl)}
		if err != nil {
			out.failed, out.err = 1, fmt.Errorf("nas: %s: %w", wl.FullName(), err)
			return out
		}
		res := &nas.Result{
			Workload:         wl.FullName(),
			Elapsed:          elapsed,
			Interrupts:       cl.Interrupts(),
			PacketsDelivered: cl.Switch.FramesDelivered(),
		}
		for i, h := range cl.Hosts {
			res.Wakeups += h.Stats().Wakeups
			res.NICStats = append(res.NICStats, cl.NICs[i].Stats)
			res.StackStats = append(res.StackStats, cl.Stacks[i].Stats)
		}
		out.detail = res
		return out
	}
}

// incastSpec is what `omxsim -workload incast -nodes 64 -qframes 64 -par
// par` runs: 63 senders blasting 128 B messages at one receiver through an
// output-queued switch with a 64-frame egress queue, for omxsim's 5 ms of
// warm-up and 40 ms of measurement in virtual time.
func incastSpec(seed uint64, sc scale, par int) sweep.IncastSpec {
	cfg := paper(seed)
	cfg.Nodes = 64
	cfg.Parallelism = par
	cfg.Topology = fabric.Topology{Kind: fabric.TopologyOutputQueued, EgressQueueFrames: 64}
	spec := sweep.IncastSpec{
		Cluster: cfg, Senders: cfg.Nodes - 1, Size: 128, Chains: 2,
		Warmup: 5 * sim.Millisecond, Measure: 40 * sim.Millisecond,
	}
	if sc == toyScale {
		spec.Cluster.Nodes, spec.Senders = 8, 7
		spec.Warmup, spec.Measure = sim.Millisecond, 4*sim.Millisecond
	}
	return spec
}

// incastWorkload times omxsim's default, the serial engine; it is the same
// at the bench and the user scale. Its alternative shards the cluster over
// two engines (sim.Group), whose barrier windows stall whenever either
// core is taken: timed so, a rep slowed 3.3× when another process ran on
// the second core, while the calibration run on two goroutines slowed
// 1.4×.
func incastWorkload(seed uint64, sc scale) *workload {
	spec := incastSpec(seed, sc, 1)
	sharded := incastSpec(seed, sc, 2)
	return &workload{
		name: "incast-64", seed: seed, procs: 2, ops: 1, cfg: spec.Cluster,
		setup: func() func() outcome { return incastDrive(spec) },
		check: func() error {
			got := incastDrive(spec)()
			if got.err == nil && !reflect.DeepEqual(got.detail, sweep.RunIncast(spec)) {
				return errors.New("the layer-level drive differs from sweep.RunIncast on the same configuration")
			}
			return got.err
		},
		alt:       func() func() outcome { return incastDrive(sharded) },
		altMetric: "sim.group_speedup",
	}
}

// incastDrive builds what sweep.RunIncast builds, in the same order, and
// returns the measurement window's run, which computes the same result.
func incastDrive(spec sweep.IncastSpec) func() outcome {
	cl := cluster.New(spec.Cluster)
	rcv := cl.Stacks[0].Open(0, cl.Hosts[0].Cores[1])
	received := 0
	var onRecv func(*omx.RecvHandle)
	onRecv = func(*omx.RecvHandle) {
		received++
		rcv.Irecv(0, 0, nil, spec.Size, onRecv)
	}
	dst := rcv.Addr()
	for i := 0; i < spec.Senders; i++ {
		node := 1 + i
		cores := cl.Hosts[node].Cores
		snd := cl.Stacks[node].Open(0, cores[1%len(cores)])
		var chain func()
		chain = func() { snd.Isend(dst, 1, nil, spec.Size, chain) }
		cl.ScheduleOn(node, 0, func() {
			for k := 0; k < spec.Chains; k++ {
				chain()
			}
		})
	}
	cl.ScheduleOn(0, 0, func() {
		for k := 0; k < 192+64*spec.Senders; k++ {
			rcv.Irecv(0, 0, nil, spec.Size, onRecv)
		}
	})
	var startCount int
	var startIntr, startWake uint64
	cl.ScheduleOn(0, spec.Warmup, func() {
		startCount = received
		startIntr = cl.NICs[0].Stats.Interrupts
		startWake = cl.Hosts[0].Stats().Wakeups
	})
	return func() outcome {
		cl.RunUntil(spec.Warmup + spec.Measure)
		secs := float64(spec.Measure) / 1e9
		intr := cl.NICs[0].Stats.Interrupts - startIntr
		port := cl.PortStats(0)
		res := sweep.IncastResult{
			Rate:           float64(received-startCount) / secs,
			Interrupts:     intr,
			IntrRate:       float64(intr) / secs,
			Wakeups:        cl.Hosts[0].Stats().Wakeups - startWake,
			Received:       received - startCount,
			PortDrops:      port.Drops,
			MaxQueueFrames: port.MaxQueueFrames,
		}
		if port.Enqueued > 0 {
			res.QueueWaitNS = float64(port.QueueWait) / float64(port.Enqueued)
		}
		for i, s := range cl.Stacks {
			res.Proto.Retransmits += s.Stats.Retransmits
			res.Proto.Backoffs += s.Stats.Backoffs
			res.Proto.GiveUps += s.Stats.GiveUps
			res.Proto.PullRetries += s.Stats.PullBlockRetries
			res.Proto.FeedbackSteps += cl.NICs[i].Stats.FeedbackSteps
			res.Proto.FeedbackClamps += cl.NICs[i].Stats.FeedbackClamps
			res.Ports = append(res.Ports, cl.PortStats(i))
		}
		out := outcome{detail: res, counts: clusterCounts(cl)}
		if res.Received == 0 {
			out.failed, out.err = 1, errors.New("the receiver completed no message in the window")
		}
		return out
	}
}

// sweepGrid is the grid `omxsweep -rate` runs by default: 4 strategies ×
// delays {15, 45, 75} µs × sizes {1, 128, 4096, 65536} B = 48 points, each
// a 30-iteration ping-pong plus a message-rate stream. At the bench scale
// the stream's windows are a tenth of omxsweep's (1 ms of warm-up and 5 ms
// of measurement in virtual time, against 10 and 50 ms), which cuts a rep
// from 2.5 s to 0.4 s.
func sweepGrid(seed uint64, sc scale) sweep.Grid {
	us, ms := sim.Microsecond, sim.Millisecond
	g := sweep.Grid{
		Strategies: []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX, nic.StrategyStream},
		Delays:     []sim.Time{15 * us, 45 * us, 75 * us},
		Sizes:      []int{1, 128, 4096, 65536},
		Seeds:      []uint64{seed},
		Iters:      30,
		Rate:       true,
		RateWarmup: ms, RateMeasure: 5 * ms,
	}
	switch sc {
	case userScale:
		g.RateWarmup, g.RateMeasure = 0, 0 // sweep's defaults, as omxsweep runs
	case toyScale:
		g.Strategies = []nic.Strategy{nic.StrategyTimeout, nic.StrategyOpenMX}
		g.Delays = []sim.Time{75 * us}
		g.Sizes = []int{1, 4096}
		g.Iters = 5
		g.RateWarmup, g.RateMeasure = ms, 4*ms
	}
	return g
}

func sweepWorkload(seed uint64, sc scale) *workload {
	g := sweepGrid(seed, sc)
	pts := g.Points()
	return &workload{
		name: "sweep-grid", seed: seed, procs: 1, ops: len(pts), cfg: pts[0].Config(),
		setup: func() func() outcome {
			return func() outcome { return sweepRun(g, 1) }
		},
		// Each point builds a ping-pong cluster with two ranks and a rate
		// cluster with a sender and a receiver endpoint before its first
		// event.
		probe: func() {
			for _, p := range pts {
				cl := cluster.New(p.Config())
				mpi.NewWorld(cl, cl.OpenEndpoints(1))
				rc := cluster.New(p.Config())
				rc.Stacks[0].Open(0, rc.Hosts[0].Cores[1])
				rc.Stacks[1].Open(0, rc.Hosts[1].Cores[1])
			}
		},
		alt: func() func() outcome {
			return func() outcome { return sweepRun(g, sweepWorkers) }
		},
	}
}

// sweepRun runs the grid and checks every point measured a latency and a
// message rate.
func sweepRun(g sweep.Grid, workers int) outcome {
	rs, err := sweep.Run(g, workers)
	out := outcome{detail: rs}
	if err != nil {
		out.failed, out.err = g.Size(), err
		return out
	}
	for _, r := range rs {
		out.counts.Interrupts += r.Interrupts
		out.counts.Retransmits += r.Retransmits
		var perr error
		switch {
		case r.Err != "":
			perr = errors.New(r.Err)
		case r.LatencyNS <= 0 || r.RateMsgPerSec <= 0:
			perr = errors.New("no latency or message rate measured")
		}
		if perr != nil {
			out.failed++
			if out.err == nil {
				out.err = fmt.Errorf("point %d: %w", r.Index, perr)
			}
		}
	}
	return out
}
