// Command omxtune finds the interrupt-load/latency tradeoff for a
// workload automatically: it drives the sweep executor adaptively (coarse
// grid, successive halving, local refinement) instead of exhaustively,
// extracts the Pareto frontier of the evaluated points, and reports the
// knee — plus the closed-loop feedback goal to run it with
// (-strategy feedback on omxsim, Config.Feedback in the library).
//
// Examples:
//
//	omxtune                                  # tune the 128B ping-pong
//	omxtune -size 4096 -bg 2 -budget 30      # congested workload, 30 evals
//	omxtune -weight 0.9                      # latency-priority pick
//	omxtune -rate -delays 0:100:5 -json      # interrupts/sec objective, JSON
//	omxtune -strategies timeout,openmx -delays 0:60:15 -budget 8 -iters 4
//
// The search is deterministic: the same flags converge to the same point
// at any -workers count, and -json output is byte-identical.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/nic"
	"openmxsim/internal/serve"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/tune"
	"openmxsim/internal/units"
)

func main() {
	os.Exit(run())
}

func run() int {
	size := flag.Int("size", 128, "message size in bytes")
	nodes := flag.Int("nodes", 0, "cluster node count (0 = paper default, raised for -bg)")
	bg := flag.Int("bg", 0, "background bulk streams congesting the receiver")
	iters := flag.Int("iters", 30, "ping-pong iterations per evaluation")
	rate := flag.Bool("rate", false, "measure stream interrupt rate per point (load objective becomes intr/s)")
	strategies := flag.String("strategies", "disabled,timeout,openmx,stream", "comma-separated strategy search space")
	delays := flag.String("delays", "0:100:5", "delay lattice in us: list (25,75) or range lo:hi:step")
	budget := flag.Int("budget", 0, "max evaluations (0 = 30% of the exhaustive grid, min 8)")
	weight := flag.Float64("weight", 0.5, "latency weight in [0,1]: 1 chases latency, 0 interrupt load")
	workers := flag.Int("workers", 0, "worker goroutines per search round (0 = GOMAXPROCS)")
	par := cliflag.Par()
	drop := flag.Float64("drop", 0, "tune under bursty loss of this stationary rate in [0,1) (0 = clean fabric)")
	burst := flag.Float64("burst", 1, "mean loss-episode length for -drop (1 = uniform loss)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jsonOut := flag.Bool("json", false, "emit the full outcome as JSON instead of text")
	cacheDir := cliflag.CacheDir()
	traceFlags := cliflag.Trace()
	flag.Parse()

	sts, err := cliflag.Strategies(*strategies)
	if err != nil {
		return fail(err)
	}
	lattice, err := cliflag.Delays(*delays)
	if err != nil {
		return fail(err)
	}

	w := *weight
	if w == 0 {
		// Spec treats a zero weight as "unset" (balanced 0.5); an explicit
		// -weight 0 means pure interrupt-load priority, which the smallest
		// positive weight delivers exactly (the latency term vanishes,
		// latency still breaks load ties).
		w = math.SmallestNonzeroFloat64
	}
	spec := tune.Spec{
		Size:          *size,
		Nodes:         *nodes,
		BgStreams:     *bg,
		DropProb:      *drop,
		Burst:         *burst,
		Iters:         *iters,
		Seed:          *seed,
		Rate:          *rate,
		Strategies:    sts,
		Delays:        lattice,
		MaxEvals:      *budget,
		LatencyWeight: w,
		Workers:       *workers,
		Par:           *par,
	}
	// The same cache omxserve and omxsweep share: a tuned workload is
	// answered from disk the next time, by this CLI or by the server.
	var cache *serve.Cache
	if *cacheDir != "" {
		if cache, err = serve.OpenCache(*cacheDir, serve.ResultsVersion); err != nil {
			return fail(err)
		}
	}
	key, err := cache.Key("tune", spec.Canonical())
	if err != nil {
		return fail(err)
	}

	var out *tune.Outcome
	var payload []byte
	if p, ok := cache.Get(key); ok {
		out = new(tune.Outcome)
		if err := json.Unmarshal(p, out); err != nil {
			return fail(fmt.Errorf("cached entry %s undecodable: %w", key, err))
		}
		payload = p
		fmt.Fprintf(os.Stderr, "[%d/%d evaluations from cache %s]\n",
			out.Evals, out.Exhaustive, *cacheDir)
	} else {
		start := time.Now()
		if out, err = tune.Search(spec); err != nil {
			return fail(err)
		}
		var buf bytes.Buffer
		if err := out.WriteJSON(&buf); err != nil {
			return fail(err)
		}
		payload = buf.Bytes()
		if cerr := cache.Put(key, payload); cerr != nil {
			fmt.Fprintln(os.Stderr, cerr) // costs a future hit, not this run
		}
		fmt.Fprintf(os.Stderr, "[%d/%d evaluations in %.2fs wall]\n",
			out.Evals, out.Exhaustive, time.Since(start).Seconds())
	}

	// Telemetry (-trace / -sample) re-runs the knee configuration as a
	// one-point sweep with the recorder attached: the search itself may be
	// answered from cache, but the timeline always comes from a live,
	// deterministic re-execution of the winning point.
	rec, err := traceFlags.Build()
	if err != nil {
		return fail(err)
	}
	if rec != nil {
		if _, ok := out.Tradeoff.Knee(); ok {
			knee := out.Knee
			st, err := cliflag.Strategy(knee.Strategy)
			if err != nil {
				return fail(err)
			}
			kg := sweep.Grid{
				Strategies: []nic.Strategy{st},
				Delays:     []sim.Time{sim.Time(math.Round(knee.DelayUS * 1000))},
				Sizes:      []int{spec.Size},
				BgStreams:  []int{spec.BgStreams},
				Seeds:      []uint64{spec.Seed},
				DropProb:   []float64{spec.DropProb},
				Burst:      []float64{spec.Burst},
				Iters:      spec.Iters,
				Rate:       spec.Rate,
				Par:        *par,
				Sample:     rec.SampleEvery(),
				Trace:      rec,
			}
			if spec.Nodes > 0 {
				kg.Nodes = []int{spec.Nodes}
			}
			if _, err := sweep.Run(kg, 1); err != nil {
				return fail(err)
			}
			if err := traceFlags.WriteOutputs(rec); err != nil {
				return fail(err)
			}
		} else {
			fmt.Fprintln(os.Stderr, "[no valid knee to trace; telemetry outputs skipped]")
		}
	}

	if *jsonOut {
		// The payload bytes verbatim: fresh runs, cache hits, and the
		// server's /result body are all byte-identical.
		if _, err := os.Stdout.Write(payload); err != nil {
			return fail(err)
		}
		return 0
	}

	// The load objective is fractional without -rate (interrupts per
	// message, typically 0-3), a large rate with it; format accordingly.
	loadUnit, loadFmt := "intr/msg", func(v float64) string { return fmt.Sprintf("%.2f", v) }
	if *rate {
		loadUnit, loadFmt = "intr/s", units.FormatRate
	}
	fmt.Printf("searched %d of %d configurations (%.0f%%), frontier holds %d\n",
		out.Evals, out.Exhaustive,
		100*float64(out.Evals)/float64(out.Exhaustive), len(out.Tradeoff.Front))
	if _, ok := out.Tradeoff.Knee(); !ok {
		fmt.Println("no valid point found")
		return 1
	}
	describe := func(label string, p tune.Point) {
		fmt.Printf("%-14s %s @ %gus — latency %.1fus, %s %s\n",
			label, p.Strategy, p.DelayUS, p.LatencyUS,
			loadFmt(p.Load), loadUnit)
	}
	describe("knee:", out.Knee)
	if out.Best.Index != out.Knee.Index {
		describe(fmt.Sprintf("best(w=%.2f):", spec.LatencyWeight), out.Best)
	}
	fmt.Printf("feedback goal: target %s intr/s, latency budget %s (run with -strategy feedback)\n",
		units.FormatRate(out.Feedback.TargetIntrPerSec),
		units.FormatDuration(int64(out.Feedback.MaxLatency)))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
