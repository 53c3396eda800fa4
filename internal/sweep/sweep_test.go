package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"openmxsim/internal/cluster"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

func testGrid() Grid {
	return Grid{
		Strategies: []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX},
		Delays:     []sim.Time{25 * sim.Microsecond, 75 * sim.Microsecond},
		Sizes:      []int{1, 4 << 10},
		Iters:      5,
	}
}

func TestGridExpansion(t *testing.T) {
	g := testGrid()
	pts := g.Points()
	if len(pts) != g.Size() || len(pts) != 12 {
		t.Fatalf("expanded %d points, Size() = %d, want 12", len(pts), g.Size())
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d carries index %d", i, p.Index)
		}
	}
	// The zero grid is the single paper-default point.
	var zero Grid
	pts = zero.Points()
	if len(pts) != 1 {
		t.Fatalf("zero grid expanded to %d points", len(pts))
	}
	cfg := pts[0].Config()
	if cfg.Strategy != nic.StrategyTimeout || cfg.CoalesceDelay != 75*sim.Microsecond ||
		cfg.IRQPolicy != host.IRQRoundRobin || cfg.Seed != 1 {
		t.Errorf("zero-grid point is not the paper default: %+v", cfg)
	}
}

// TestGridNormalizedEdgeCases pins the zero/negative handling of the
// scalar grid fields feeding Validate: non-positive Iters and rate
// windows must come back as the documented defaults, never zero (a zero
// measurement window would divide by zero downstream), and every axis of
// the zero grid must be filled so the expanded point validates.
func TestGridNormalizedEdgeCases(t *testing.T) {
	cases := []Grid{
		{},
		{Iters: 0, RateWarmup: 0, RateMeasure: 0},
		{Iters: -3, RateWarmup: -sim.Millisecond, RateMeasure: -sim.Second},
	}
	for i, g := range cases {
		n := g.normalized()
		if n.Iters != 30 {
			t.Errorf("case %d: Iters = %d, want 30", i, n.Iters)
		}
		if n.RateWarmup != 10*sim.Millisecond || n.RateMeasure != 50*sim.Millisecond {
			t.Errorf("case %d: rate windows = %v/%v, want 10ms/50ms", i, n.RateWarmup, n.RateMeasure)
		}
		for axis, size := range map[string]int{
			"Strategies": len(n.Strategies), "Delays": len(n.Delays),
			"Sizes": len(n.Sizes), "IRQ": len(n.IRQ), "Queues": len(n.Queues),
			"Seeds": len(n.Seeds), "SleepDisabled": len(n.SleepDisabled),
			"Nodes": len(n.Nodes), "BgStreams": len(n.BgStreams),
		} {
			if size != 1 {
				t.Errorf("case %d: axis %s has %d defaults, want 1", i, axis, size)
			}
		}
		for _, p := range n.Points() {
			if err := p.Config().Validate(); err != nil {
				t.Errorf("case %d: normalized point does not validate: %v", i, err)
			}
		}
	}
	// Explicit axis values — including invalid ones — survive
	// normalization untouched; rejection is Run's job, not normalized's.
	g := Grid{Sizes: []int{-5}, Nodes: []int{1}}.normalized()
	if g.Sizes[0] != -5 || g.Nodes[0] != 1 {
		t.Errorf("normalized rewrote explicit values: %+v", g)
	}
}

// TestGridParClamp pins the parallelism clamp in normalized: zero and
// negative requests mean the serial default, anything beyond the machine's
// core count is pulled back to NumCPU, and in-range values survive.
func TestGridParClamp(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, tc := range []struct{ in, want int }{
		{0, 1},
		{-4, 1},
		{1, 1},
		{ncpu, ncpu},
		{ncpu + 1, ncpu},
		{8 * ncpu, ncpu},
	} {
		if got := (Grid{Par: tc.in}).normalized().Par; got != tc.want {
			t.Errorf("Par %d normalized to %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestWorkerBudget pins the workers x par oversubscription clamp for
// grids whose rate streams shard: an explicit worker count survives at par 1 (users
// may oversubscribe on purpose), but any par > 1 shrinks the pool so the
// product stays within GOMAXPROCS, and the result never leaves [1, points].
func TestWorkerBudget(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	budget := func(workers, par, points int) int {
		g := Grid{Sizes: make([]int, points), Rate: true}.normalized()
		g.Par = par
		return g.workerBudget(workers)
	}
	if got := budget(6, 1, 100); got != 6 {
		t.Errorf("explicit workers=6 par=1 became %d", got)
	}
	if got, want := budget(0, 1, 1000), min(max, 1000); got != want {
		t.Errorf("default workers = %d, want %d", got, want)
	}
	if got := budget(7, 1, 3); got != 3 {
		t.Errorf("workers not capped at point count: %d", got)
	}
	for _, par := range []int{2, max + 1, 4 * max} {
		got := budget(100, par, 1000)
		if got < 1 {
			t.Fatalf("par %d: budget %d < 1", par, got)
		}
		if got > 1 && got*par > max {
			t.Errorf("par %d: workers %d oversubscribes %d cores", par, got, max)
		}
	}
	if got := budget(-3, 4*max, 50); got != 1 {
		t.Errorf("overcommitted par must degrade to 1 worker, got %d", got)
	}
}

// TestParShrinksPoolOnlyForRateStreams: a point's rate stream shards on
// any fabric, while its ping-pong always runs serially, so Par costs
// workers exactly when Rate is set. A latency-only grid at Par 2 keeps the
// Par 1 pool, bounded queues or not.
func TestParShrinksPoolOnlyForRateStreams(t *testing.T) {
	sizes := []int{0, 1, 64, 128, 512, 1024, 4096, 65536}
	serial := Grid{Sizes: sizes, Par: 1}.Workers(0)
	for _, q := range []int{0, 64} {
		if got := (Grid{Sizes: sizes, Par: 2, QFrames: q}).Workers(0); got != serial {
			t.Errorf("latency only, qframes %d, Par 2: %d workers, want the Par 1 pool of %d", q, got, serial)
		}
	}
	par := min(2, runtime.NumCPU()) // normalized clamps Par to the machine
	want := max(1, min(runtime.GOMAXPROCS(0)/par, len(sizes)))
	for _, q := range []int{0, 64} {
		if got := (Grid{Sizes: sizes, Par: 2, QFrames: q, Rate: true}).Workers(0); got != want {
			t.Errorf("rate, qframes %d, Par 2: %d workers, want %d", q, got, want)
		}
	}
}

func TestRunRejectsInvalidGrid(t *testing.T) {
	g := Grid{Queues: []int{-1}}
	if _, err := Run(g, 1); err == nil {
		t.Fatal("negative queue count accepted")
	}
}

// TestGridSizeCap: four 65,536-entry axes name 2^64 points. Size must
// saturate rather than wrap to 0, and Run must refuse the grid before
// expanding any of it.
func TestGridSizeCap(t *testing.T) {
	axis := make([]int, 1<<16)
	g := Grid{Sizes: axis, Queues: axis, Nodes: axis, Seeds: make([]uint64, 1<<16)}
	if got := g.Size(); got != math.MaxInt {
		t.Fatalf("Size() = %d, want math.MaxInt", got)
	}
	start := time.Now()
	_, err := Run(g, 1)
	if err == nil || !strings.Contains(err.Error(), "want at most 65536") {
		t.Fatalf("Run error = %v, want the point cap", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Run took %v to refuse the grid", d)
	}
}

// TestRunPingPongRejectsBadArguments: out-of-range arguments return an
// error before any cluster is built, never a panic, a deadlock or a
// measurement of nothing.
func TestRunPingPongRejectsBadArguments(t *testing.T) {
	badDelay := cluster.Paper()
	badDelay.CoalesceDelay = -5 * sim.Microsecond
	oneNode := cluster.Paper()
	oneNode.Nodes = 1
	cases := []struct {
		name  string
		cfg   cluster.Config
		sizes []int
		iters int
		bg    Background
		want  string
	}{
		{"iters zero", cluster.Paper(), []int{128}, 0, Background{}, "invalid iteration count 0"},
		{"iters negative", cluster.Paper(), []int{128}, -3, Background{}, "invalid iteration count -3"},
		{"size negative", cluster.Paper(), []int{128, -1}, 5, Background{}, "invalid message size -1 B"},
		{"one node", oneNode, []int{128}, 5, Background{}, "invalid node count 1"},
		{"one node loaded", oneNode, []int{128}, 5, Background{Streams: 1}, "invalid node count 1"},
		{"bg negative", cluster.Paper(), []int{128}, 5, Background{Streams: -1}, "invalid background stream count -1"},
		{"config", badDelay, []int{128}, 5, Background{}, "invalid coalescing delay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunPingPong(tc.cfg, tc.sizes, tc.iters, tc.bg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestDeterministicAcrossWorkerCounts is the sweep contract: the same grid
// and seed yield byte-identical JSON regardless of worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := testGrid()
	serial, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	js, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatalf("worker count changed the output:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", js, jp)
	}
}

// TestSweepDeterministicAcrossPar is the same contract along the other
// axis: per-point simulation parallelism must not change a byte of output.
// The rate stream is the harness that actually runs sharded (the
// ping-pong always uses the serial reference); QFrames puts drop-tail
// queues on the ports it shards through.
func TestSweepDeterministicAcrossPar(t *testing.T) {
	g := Grid{
		Sizes:       []int{128, 4 << 10},
		Seeds:       []uint64{1, 7},
		Iters:       3,
		Rate:        true,
		RateWarmup:  2 * sim.Millisecond,
		RateMeasure: 5 * sim.Millisecond,
		QFrames:     64,
	}
	serial, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	g.Par = 4
	sharded, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	js, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := sharded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatalf("parallelism changed the output:\n--- par=1 ---\n%s\n--- par=4 ---\n%s", js, jp)
	}
}

func TestResultsMeasureTheTradeoff(t *testing.T) {
	g := Grid{
		Strategies: []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX},
		Sizes:      []int{128},
		Iters:      8,
	}
	rs, err := Run(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[string]Result{}
	for _, r := range rs {
		if r.Err != "" {
			t.Fatalf("point %d failed: %s", r.Index, r.Err)
		}
		if r.LatencyNS <= 0 {
			t.Errorf("point %d: non-positive latency %d", r.Index, r.LatencyNS)
		}
		byStrategy[r.Strategy] = r
	}
	// The paper's headline: timeout coalescing costs ~the delay in latency,
	// disabled costs interrupts, openmx gets both right.
	if byStrategy["disabled"].LatencyNS >= byStrategy["timeout"].LatencyNS {
		t.Errorf("disabled latency %d not below timeout %d",
			byStrategy["disabled"].LatencyNS, byStrategy["timeout"].LatencyNS)
	}
	if byStrategy["openmx"].IntrPerMsg > byStrategy["disabled"].IntrPerMsg {
		t.Errorf("openmx intr/msg %.2f above disabled %.2f",
			byStrategy["openmx"].IntrPerMsg, byStrategy["disabled"].IntrPerMsg)
	}
}

func TestRateMeasurement(t *testing.T) {
	g := Grid{
		Sizes:       []int{128},
		Iters:       4,
		Rate:        true,
		RateWarmup:  2 * sim.Millisecond,
		RateMeasure: 10 * sim.Millisecond,
	}
	rs, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].RateMsgPerSec < 10_000 {
		t.Errorf("128B rate %.0f msg/s implausibly low", rs[0].RateMsgPerSec)
	}
}

// TestRunStreamInputs: a one-node config is raised to the two nodes the
// stream runs between, and a negative size panics with an error, as
// cluster.New does on an invalid config.
func TestRunStreamInputs(t *testing.T) {
	cfg := cluster.Paper()
	cfg.Nodes = 1
	spec := StreamSpec{Cluster: cfg, Size: 128, Warmup: sim.Millisecond, Measure: 2 * sim.Millisecond}
	if r := RunStream(spec); r.Rate <= 0 {
		t.Errorf("one-node stream measured %.0f msg/s", r.Rate)
	}

	spec.Size = -1
	var got any
	func() {
		defer func() { got = recover() }()
		RunStream(spec)
	}()
	err, ok := got.(error)
	if !ok || !strings.Contains(err.Error(), "invalid message size -1 B: want >= 0") {
		t.Errorf("negative size: recovered %v, want an invalid-size error", got)
	}
}

func TestSerializationShape(t *testing.T) {
	g := Grid{Sizes: []int{1}, Iters: 3}
	rs, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("sweep JSON does not parse: %v", err)
	}
	if len(decoded) != 1 || decoded[0]["strategy"] != "timeout" {
		t.Errorf("unexpected JSON content: %v", decoded)
	}

	var csv strings.Builder
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Errorf("CSV row has %d cells, header names %d", got, want)
	}
}

// TestRunValidationMessages pins the rejection style shared with
// cluster.Config.Validate: every message names the offending point, the
// offending value, and the valid range. Grid.Validate must refuse the
// same grids with the same error, before anything runs.
func TestRunValidationMessages(t *testing.T) {
	cases := []struct {
		name string
		grid Grid
		want string
	}{
		{"size", Grid{Sizes: []int{-4}}, "invalid message size -4 B: want >= 0"},
		{"bg streams", Grid{BgStreams: []int{-2}}, "invalid background stream count -2: want >= 0"},
		{"nodes", Grid{Nodes: []int{1}}, "invalid node count 1: want >= 2"},
		// Above the cap, Nodes and BgStreams fail through Config.Validate,
		// before any worker builds a cluster.
		{"nodes above cap", Grid{Nodes: []int{cluster.MaxNodes + 1}}, "invalid node count 4097: want <= 4096"},
		{"bg streams above cap", Grid{BgStreams: []int{cluster.MaxNodes - 1}}, "invalid node count 4097: want <= 4096"},
		{"drop prob", Grid{DropProb: []float64{1.5}}, "invalid drop probability 1.5: want [0,1)"},
		{"burst", Grid{DropProb: []float64{0.1}, Burst: []float64{-3}}, "invalid burst length -3: want >= 0"},
		{"queues via config", Grid{Queues: []int{-1}}, "invalid queue count -1: want >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.grid, 1)
			if err == nil {
				t.Fatalf("grid accepted: %+v", tc.grid)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "point 0") {
				t.Errorf("error %q does not name the offending point", err)
			}
			if verr := tc.grid.Validate(); verr == nil || verr.Error() != err.Error() {
				t.Errorf("Validate = %v, want Run's error %q", verr, err)
			}
		})
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("the default grid fails Validate: %v", err)
	}
}
