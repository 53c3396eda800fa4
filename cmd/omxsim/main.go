// Command omxsim runs a single custom scenario: a workload (pingpong, rate,
// incast, or a NAS benchmark) under a chosen coalescing strategy, host
// configuration, and fabric topology, printing the measurements and
// interrupt statistics.
//
// Examples:
//
//	omxsim -workload pingpong -strategy openmx -size 128
//	omxsim -workload pingpong -strategy openmx -bg 2 -qframes 64
//	omxsim -workload rate -strategy disabled -size 0
//	omxsim -workload incast -nodes 9 -strategy timeout -qframes 64
//	omxsim -workload nas -bench is -class B -ranks 16 -strategy stream
//	omxsim -workload pingpong -strategy timeout -delay 30 -irq single -nosleep
//	omxsim -workload rate -strategy stream -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"openmxsim/internal/chaos"
	"openmxsim/internal/cliflag"
	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nas"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

func main() {
	workload := flag.String("workload", "pingpong", "pingpong | rate | incast | nas")
	strategy := flag.String("strategy", "timeout", "disabled | timeout | openmx | stream | adaptive | feedback")
	delay := flag.Int("delay", 75, "coalescing delay in microseconds")
	size := flag.Int("size", 128, "message size in bytes (pingpong/rate/incast)")
	iters := flag.Int("iters", 30, "ping-pong iterations")
	bench := flag.String("bench", "is", "NAS benchmark name")
	class := flag.String("class", "W", "NAS class (S W A B C)")
	ranks := flag.Int("ranks", 16, "NAS rank count")
	irq := flag.String("irq", "all", "IRQ routing: all | single | perqueue")
	queues := flag.Int("queues", 1, "NIC receive queues")
	nosleep := flag.Bool("nosleep", false, "disable C1E idle sleep")
	nodes := flag.Int("nodes", 2, "cluster node count (incast: senders = nodes-1)")
	bg := flag.Int("bg", 0, "background bulk streams congesting the receiver port (pingpong)")
	qframes := flag.Int("qframes", 0, "switch egress queue bound in frames (0 = ideal unbounded port)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	faultFlags := cliflag.Fault()
	burst := flag.Float64("burst", 1, "loss burstiness: 1 applies -drop as a uniform static fault; > 1 moves -drop into a bursty Gilbert-Elliott scenario of this mean episode length")
	flap := flag.String("flap", "", "link flaps as comma-separated node:down[:up] Go-duration offsets ('3:10ms:12ms'; no up = down forever)")
	par := cliflag.Par()
	traceFlags := cliflag.Trace()
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of text")
	flag.Parse()

	if *size < 0 {
		fail("bad -size %d: want >= 0", *size)
	}
	if *qframes < 0 {
		fail("bad -qframes %d: want >= 0 (0 = ideal unbounded port)", *qframes)
	}
	if !(*burst >= 0) || math.IsInf(*burst, 1) {
		fail("bad -burst %g: want a finite length >= 0", *burst)
	}
	if *workload != "nas" && *nodes < 2 {
		fail("-workload %s needs -nodes >= 2", *workload)
	}
	st, err := cliflag.Strategy(*strategy)
	if err != nil {
		fail("%v", err)
	}
	cfg := cluster.Paper()
	cfg.Seed = *seed
	cfg.Strategy = st
	cfg.CoalesceDelay = cliflag.DelayUS(*delay)
	cfg.SleepDisabled = *nosleep
	cfg.Queues = *queues
	cfg.Nodes = *nodes
	cfg.Parallelism = *par
	if *qframes > 0 {
		cfg.Topology = fabric.Topology{
			Kind:              fabric.TopologyOutputQueued,
			EgressQueueFrames: *qframes,
		}
	}
	cfg.IRQPolicy, err = host.ParseIRQPolicy(*irq)
	if err != nil {
		fail("%v", err)
	}
	fault, err := faultFlags.Build()
	if err != nil {
		fail("%v", err)
	}
	if *burst > 1 && fault != nil && fault.DropProb > 0 {
		// Bursty loss needs per-frame chain state: route the drop
		// probability through the chaos scenario layer instead of the
		// static fault, leaving any dup/delay knobs where they were.
		cfg.Scenario = &chaos.Scenario{Loss: chaos.Bursty(fault.DropProb, *burst), Seed: *seed}
		fault.DropProb = 0
		if fault.DupProb == 0 && fault.DelayProb == 0 {
			fault = nil
		}
	}
	cfg.Fault = fault
	flaps, err := cliflag.Flaps(*flap)
	if err != nil {
		fail("%v", err)
	}
	if len(flaps) > 0 {
		if cfg.Scenario == nil {
			cfg.Scenario = &chaos.Scenario{Seed: *seed}
		}
		cfg.Scenario.Flaps = append(cfg.Scenario.Flaps, flaps...)
	}
	rec, err := traceFlags.Build()
	if err != nil {
		fail("%v", err)
	}
	cfg.Trace = rec
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	// emit prints v as JSON when -json is set; otherwise it runs text().
	emit := func(v any, text func()) {
		if !*jsonOut {
			text()
			return
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("%s\n", b)
	}

	// addTelemetry folds the optional observability payloads into a -json
	// body: per-port switch statistics (queued topologies only) and the
	// sampled metric series when -sample is on.
	addTelemetry := func(m map[string]any, ports []fabric.PortStats) map[string]any {
		if len(ports) > 0 {
			m["port_stats"] = ports
		}
		if rec != nil && rec.SampleEvery() > 0 {
			m["series"] = rec.Samples()
		}
		return m
	}

	switch *workload {
	case "pingpong":
		out, err := sweep.RunPingPong(cfg, []int{*size}, *iters, sweep.Background{Streams: *bg})
		if err != nil {
			fail("%v", err)
		}
		lat := out.Latency
		emit(addTelemetry(map[string]any{
			"workload": "pingpong", "strategy": st.String(), "delay_us": *delay,
			"irq": cfg.IRQPolicy.String(), "size_bytes": *size,
			"bg_streams": *bg, "latency_ns": int64(lat[*size]),
		}, out.Ports), func() {
			fmt.Printf("one-way %s latency: %s (%s, delay %dus, irq %s, bg %d)\n",
				units.FormatBytes(*size), units.FormatDuration(lat[*size]), st, *delay, *irq, *bg)
		})
	case "incast":
		res := sweep.RunIncast(sweep.IncastSpec{
			Cluster: cfg, Senders: *nodes - 1, Size: *size,
			Warmup: 5 * sim.Millisecond, Measure: 40 * sim.Millisecond,
		})
		emit(addTelemetry(map[string]any{
			"workload": "incast", "strategy": st.String(), "delay_us": *delay,
			"senders": *nodes - 1, "size_bytes": *size,
			"rate_msg_per_sec": res.Rate, "intr_per_sec": res.IntrRate,
			"port_drops": res.PortDrops, "max_queue_frames": res.MaxQueueFrames,
			"queue_wait_ns": res.QueueWaitNS,
		}, res.Ports), func() {
			fmt.Printf("incast %d->1 %s: %s msg/s, %s intr/s, %d drops, maxq %d (%s)\n",
				*nodes-1, units.FormatBytes(*size), units.FormatRate(res.Rate),
				units.FormatRate(res.IntrRate), res.PortDrops, res.MaxQueueFrames, st)
		})
	case "rate":
		rate := sweep.RunStream(sweep.StreamSpec{
			Cluster: cfg, Size: *size,
			Warmup: 20 * sim.Millisecond, Measure: 100 * sim.Millisecond,
		}).Rate
		emit(addTelemetry(map[string]any{
			"workload": "rate", "strategy": st.String(), "delay_us": *delay,
			"irq": cfg.IRQPolicy.String(), "size_bytes": *size,
			"rate_msg_per_sec": rate,
		}, nil), func() {
			fmt.Printf("message rate %s: %s msg/s (%s, delay %dus, irq %s)\n",
				units.FormatBytes(*size), units.FormatRate(rate), st, *delay, *irq)
		})
	case "nas":
		if len(*class) != 1 {
			fail("bad -class %q: want one letter (S W A B C)", *class)
		}
		wl, err := nas.Get(*bench, (*class)[0], *ranks)
		if err != nil {
			fail("%v", err)
		}
		res, err := nas.Run(cfg, wl)
		if err != nil {
			fail("%v", err)
		}
		emit(map[string]any{
			"workload": "nas", "bench": res.Workload, "strategy": st.String(),
			"delay_us": *delay, "irq": cfg.IRQPolicy.String(),
			"elapsed_ns": int64(res.Elapsed), "interrupts": res.Interrupts,
			"wakeups": res.Wakeups, "packets": res.PacketsDelivered,
		}, func() {
			fmt.Printf("%s: %s, %s interrupts, %d wakeups, %d packets (%s)\n",
				res.Workload, units.FormatDuration(res.Elapsed),
				units.FormatCount(float64(res.Interrupts)), res.Wakeups,
				res.PacketsDelivered, st)
		})
	default:
		fail("unknown -workload %q", *workload)
	}

	if err := traceFlags.WriteOutputs(rec); err != nil {
		fail("%v", err)
	}
}

// fail prints a one-line message to stderr and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
