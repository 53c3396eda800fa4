// Command omxsweep runs a parallel parameter sweep over the simulator's
// tuning space — including the cluster-size and background-load axes of
// the shared-fabric extension — and writes machine-readable results. Every
// grid point is an independent deterministic simulation, so the sweep
// scales to all cores and the output is byte-identical regardless of
// worker count.
//
// Axes take comma-separated lists; delays also accept lo:hi:step ranges
// (microseconds). Examples:
//
//	omxsweep -strategies openmx,timeout -delays 0:100:25 -sizes 0,128,4096 -out sweep.json -workers 8
//	omxsweep -strategies disabled,timeout,openmx,stream -sizes 1,128,65536 -rate -csvout sweep.csv
//	omxsweep -delays 75 -irq round-robin,single-core -seeds 1,2,3 -out -
//	omxsweep -strategies timeout,openmx -sizes 128,4096 -bg 0,2 -out congested.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/serve"
	"openmxsim/internal/sweep"
	"openmxsim/internal/trace"
)

func main() {
	// The sweep body runs in run() so the profile-flushing defers execute
	// before the process exits with a failure status.
	os.Exit(run())
}

func run() int {
	strategies := flag.String("strategies", "disabled,timeout,openmx,stream", "comma-separated coalescing strategies")
	delays := flag.String("delays", "15:75:30", "coalescing delays in us: list (25,75) or range lo:hi:step")
	sizes := flag.String("sizes", "1,128,4096,65536", "comma-separated message sizes in bytes")
	irq := flag.String("irq", "round-robin", "comma-separated IRQ policies: round-robin | single-core | per-queue")
	queues := flag.String("queues", "1", "comma-separated NIC receive-queue counts")
	nodes := flag.String("nodes", "2", "comma-separated cluster node counts")
	bg := flag.String("bg", "0", "comma-separated background bulk-stream counts (congest the ping-pong)")
	seeds := flag.String("seeds", "1", "comma-separated simulation seeds")
	drops := flag.String("drop", "0", "comma-separated loss-rate axis in [0,1) (0 = clean fabric, no scenario installed)")
	bursts := flag.String("burst", "1", "comma-separated loss-burst axis: mean loss-episode length at equal average rate")
	iters := flag.Int("iters", 30, "ping-pong iterations per point")
	rate := flag.Bool("rate", false, "also measure message rate at every point")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	cacheDir := cliflag.CacheDir()
	qframes := flag.Int("qframes", 0, "switch egress queue bound in frames (0 = unbounded)")
	out := flag.String("out", "-", "JSON output path ('-' = stdout, '' = none)")
	csvOut := flag.String("csvout", "", "CSV output path ('-' = stdout, '' = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	traceFlags := cliflag.Trace()
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // report the retained, not transient, picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// The same string-axes vocabulary omxserve accepts over HTTP: one
	// parser, one grid, whichever way the sweep arrives.
	spec := cliflag.GridSpec{
		Strategies: *strategies, Delays: *delays, Sizes: *sizes,
		IRQ: *irq, Queues: *queues, Nodes: *nodes, Bg: *bg,
		Seeds: *seeds, Drop: *drops, Burst: *bursts,
		Iters: *iters, Rate: *rate, QFrames: *qframes,
		Sample: *traceFlags.Sample,
	}
	grid, err := spec.Grid()
	if err != nil {
		return fail(err)
	}
	// A timeline (-trace) or merged series file (-sample-out) needs one
	// recorder spanning every point; per-point sampling alone does not (each
	// point records privately, keeping the worker pool parallel).
	var rec *trace.Recorder
	if *traceFlags.Trace != "" || *traceFlags.SampleOut != "" {
		if rec, err = traceFlags.Build(); err != nil {
			return fail(err)
		}
		grid.Trace = rec
	}
	tracing := grid.Trace != nil

	// The crash-safe result cache omxserve uses, shared: a sweep run here
	// pre-warms the server, a server run answers this CLI instantly. The
	// key is the canonical grid — the execution shape (-workers) never
	// splits it, because results are byte-identical at any worker count.
	var cache *serve.Cache
	if *cacheDir != "" {
		if cache, err = serve.OpenCache(*cacheDir, serve.ResultsVersion); err != nil {
			return fail(err)
		}
	}
	key, err := cache.Key("sweep", grid.Canonical())
	if err != nil {
		return fail(err)
	}

	var results sweep.Results
	var payload []byte
	// Tracing bypasses the cache in both directions: a hit would skip the
	// simulations the recorder exists to observe, and the run itself is
	// serialized (single worker), so its wall time is not representative.
	if p, ok := cache.Get(key); ok && !tracing {
		if err := json.Unmarshal(p, &results); err != nil {
			return fail(fmt.Errorf("cached entry %s undecodable: %w", key, err))
		}
		payload = p
		fmt.Fprintf(os.Stderr, "[%d points from cache %s]\n", len(results), *cacheDir)
	} else {
		fmt.Fprintf(os.Stderr, "sweeping %d points (%d simulations) on %d workers\n",
			grid.Size(), grid.Simulations(), grid.Workers(*workers))
		start := time.Now()
		if results, err = sweep.Run(grid, *workers); err != nil {
			return fail(err)
		}
		var buf bytes.Buffer
		if err := results.WriteJSON(&buf); err != nil {
			return fail(err)
		}
		payload = buf.Bytes()
		if !tracing {
			if cerr := cache.Put(key, payload); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr) // costs a future hit, not this run
			}
		}
		fmt.Fprintf(os.Stderr, "[%d points in %.2fs wall]\n",
			len(results), time.Since(start).Seconds())
	}

	failed := 0
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "point %d failed: %s\n", r.Index, r.Err)
		}
	}
	// JSON output re-emits the payload bytes verbatim so fresh runs,
	// cache hits, and the server's /result body are all byte-identical.
	if err := emit(*out, func(w io.Writer) error { _, werr := w.Write(payload); return werr }); err != nil {
		return fail(err)
	}
	if err := emit(*csvOut, results.WriteCSV); err != nil {
		return fail(err)
	}
	if err := traceFlags.WriteOutputs(rec); err != nil {
		return fail(err)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// emit writes via fn to path: stdout for "-", nothing for "".
func emit(path string, fn func(w io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail reports err and yields the failure exit code, letting deferred
// profile writers run (unlike os.Exit).
func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
