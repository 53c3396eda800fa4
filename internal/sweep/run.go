package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"openmxsim/internal/fabric"
	"openmxsim/internal/trace"
)

// Observer receives each point's result the moment its simulation
// completes. It is invoked from the worker goroutines, concurrently and
// in completion order (not grid order); implementations must be safe for
// concurrent use. A nil Observer is ignored.
type Observer func(Result)

// maxPoints bounds the points one grid may expand to. Every grid the
// commands and experiments run has under a hundred.
const maxPoints = 1 << 16

// Run expands the grid and executes every point on a pool of workers
// (workers <= 0 means GOMAXPROCS). Each point builds its own clusters from
// its own seed, so points never share state and the pool is free to run
// them in any order; the returned slice is nevertheless always in grid
// order. A point that fails records its error in Result.Err instead of
// aborting the sweep.
func Run(g Grid, workers int) (Results, error) {
	return RunContext(context.Background(), g, workers, nil)
}

// RunContext is Run under external supervision: ctx cancellation (or
// deadline expiry) is checked between points only — a point that has
// started always finishes, so every completed result is bit-identical to
// the same point of an uncancelled run. On cancellation the full-length
// result slice still comes back in grid order: completed points carry
// their measurements, unstarted points carry the cancellation cause in
// Result.Err, and the returned error wraps ctx's error (errors.Is
// against context.Canceled / DeadlineExceeded works). obs, when non-nil,
// observes every completed result as it lands (see Observer).
func RunContext(ctx context.Context, g Grid, workers int, obs Observer) (Results, error) {
	g = g.normalized()
	pts, err := g.validPoints()
	if err != nil {
		return nil, err
	}
	workers = g.workerBudget(workers)
	if g.Trace != nil {
		// A shared event recorder claims one run index per point; a single
		// worker keeps that claim order equal to grid order, so trace
		// bytes are deterministic (results were order-independent anyway).
		workers = 1
	}

	results := make(Results, len(pts))
	// The jobs channel is buffered to the full point count and filled
	// before any worker starts: dispatch is a single non-blocking drain, so
	// a worker never stalls on handoff with a producer goroutine (an
	// unbuffered channel would serialize every job with the producer's
	// send, which dominates short points on wide machines).
	jobs := make(chan int, len(pts))
	for i := range pts {
		jobs <- i
	}
	close(jobs)
	// done[i] flags points that actually ran (each index is claimed by
	// exactly one worker, so plain bool writes never race); completed
	// counts them for the cancellation error.
	done := make([]bool, len(pts))
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker reusable scratch: runPoint needs a one-element
			// size slice per point; reusing the worker's buffer keeps the
			// dispatch loop allocation-free.
			var scratch pointScratch
			for i := range jobs {
				// The supervision seam: cancellation is observed here,
				// between points, never inside one — the worker abandons
				// the rest of its queue and the started points' results
				// stay untouched.
				if ctx.Err() != nil {
					return
				}
				results[i] = runPoint(g, pts[i], &scratch)
				done[i] = true
				completed.Add(1)
				if obs != nil {
					obs(results[i])
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i, p := range pts {
			if !done[i] {
				results[i] = cancelledResult(p, err)
			}
		}
		return results, fmt.Errorf("sweep: cancelled after %d of %d points: %w",
			completed.Load(), len(pts), err)
	}
	return results, nil
}

// cancelledResult is the placeholder for a point the supervision seam
// skipped: the point's coordinates with the cancellation cause in Err, so
// partial result sets stay full-length, grid-ordered, and self-describing.
func cancelledResult(p Point, cause error) Result {
	res := p.result(p.Config().Nodes)
	res.Err = fmt.Sprintf("cancelled: %v", cause)
	return res
}

// Validate returns the error RunContext would return for g before running
// any point: a grid that expands to more than 65,536 points, or a point
// whose settings cannot build a cluster. A front door calls it to refuse
// such a grid up front instead of queueing a run that cannot start.
func (g Grid) Validate() error {
	_, err := g.normalized().validPoints()
	return err
}

// validPoints expands a normalized grid and checks every point.
func (g Grid) validPoints() ([]Point, error) {
	// Checked before Points() allocates the expansion: a request body
	// under a megabyte can name billions of points.
	if n := g.Size(); n > maxPoints {
		return nil, fmt.Errorf("sweep: grid expands to %d points: want at most %d", n, maxPoints)
	}
	pts := g.Points() // never empty: normalized() fills every axis
	// Rejections mirror cluster.Config.Validate's shape — "invalid <field>
	// <value>: want <range>" — so a bad axis value in a wide grid is
	// pinpointed by value, not hunted by position.
	for _, p := range pts {
		if p.Size < 0 {
			return nil, fmt.Errorf("sweep: point %d: invalid message size %d B: want >= 0", p.Index, p.Size)
		}
		if p.BgStreams < 0 {
			return nil, fmt.Errorf("sweep: point %d: invalid background stream count %d: want >= 0", p.Index, p.BgStreams)
		}
		// normalized() fills an empty Nodes axis with the default, so any
		// sub-2 value here was explicit user input, not "unset".
		if p.Nodes < 2 {
			return nil, fmt.Errorf("sweep: point %d: invalid node count %d: want >= 2 (the ping-pong needs two nodes)", p.Index, p.Nodes)
		}
		// Written so that NaN fails too.
		if !(p.DropProb >= 0 && p.DropProb < 1) {
			return nil, fmt.Errorf("sweep: point %d: invalid drop probability %g: want [0,1)", p.Index, p.DropProb)
		}
		if !(p.Burst >= 0) || math.IsInf(p.Burst, 1) {
			return nil, fmt.Errorf("sweep: point %d: invalid burst length %g: want >= 0 and finite", p.Index, p.Burst)
		}
		if err := p.Config().Validate(); err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", p.Index, err)
		}
	}
	return pts, nil
}

// workerBudget resolves the worker-pool size for the normalized grid g:
// non-positive means GOMAXPROCS, and the pool never exceeds the point
// count. A point's rate stream (Rate) shards, so each worker then drives
// up to Par simulation goroutines and the real concurrency is workers x
// Par; the pool shrinks so the product stays within the machine rather
// than letting the two knobs silently multiply past it (oversubscription
// slows every point's barrier windows at once). The ping-pong always runs
// serially (RunPingPong), so without Rate, Par costs no workers.
func (g Grid) workerBudget(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.Par > 1 && g.Rate {
		if cap := runtime.GOMAXPROCS(0) / g.Par; workers > cap {
			workers = cap
		}
	}
	if n := g.Size(); workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Workers reports the worker-pool size Run will use for this grid and
// requested worker count (omxsweep's banner mirrors it).
func (g Grid) Workers(workers int) int {
	return g.normalized().workerBudget(workers)
}

// pointScratch is per-worker reusable state for runPoint. Workers own one
// each, so nothing here is shared or locked.
type pointScratch struct {
	sizes [1]int
}

// runPoint executes one point: a ping-pong latency measurement, and
// optionally a unidirectional message-rate measurement on a second
// cluster. A panic inside the simulator is converted into Result.Err so a
// single bad point cannot take down a long sweep.
func runPoint(g Grid, p Point, scratch *pointScratch) (res Result) {
	cfg := p.Config()
	cfg.Parallelism = g.Par
	if g.QFrames > 0 {
		cfg.Topology = fabric.Topology{
			Kind:              fabric.TopologyOutputQueued,
			EgressQueueFrames: g.QFrames,
		}
	}
	res = p.result(cfg.Nodes)
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	// Telemetry: a shared event recorder (g.Trace) records every cluster
	// the point builds; a sampling-only grid gives each point its own
	// recorder, so concurrent workers never share one.
	rec := g.Trace
	runIdx := 0
	if rec != nil {
		runIdx = rec.Runs()
	} else if g.Sample > 0 {
		rec = trace.New(trace.Config{SampleEvery: g.Sample})
	}
	cfg.Trace = rec

	scratch.sizes[0] = p.Size
	out, err := RunPingPong(cfg, scratch.sizes[:], g.Iters, Background{Streams: p.BgStreams})
	res.Proto = out.Proto
	if g.Sample > 0 {
		// Rezero the run index: a point's series is self-contained, and
		// the payload must not depend on whether a shared event recorder
		// (whose run counter spans the whole sweep) happened to be on.
		series := rec.RunSamples(runIdx)
		for i := range series {
			series[i].Run = 0
		}
		res.Series = series
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.LatencyNS = int64(out.Latency[p.Size])
	res.Interrupts = out.Interrupts
	if msgs := out.Messages; msgs > 0 {
		res.IntrPerMsg = float64(out.Interrupts) / float64(msgs)
	}

	if g.Rate {
		sr := RunStream(StreamSpec{
			Cluster: cfg, Size: p.Size,
			Warmup: g.RateWarmup, Measure: g.RateMeasure,
		})
		res.RateMsgPerSec = sr.Rate
		res.RateIntrPerSec = sr.IntrRate
	}
	return res
}
