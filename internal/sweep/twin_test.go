package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// twinGrid repeats simulation keys two ways: Disabled at three delays,
// and every loss-free point at two burst lengths. Rate windows are short
// and sampling is on, so every measured field is exercised.
func twinGrid() Grid {
	us := sim.Microsecond
	return Grid{
		Strategies:  []nic.Strategy{nic.StrategyDisabled, nic.StrategyTimeout},
		Delays:      []sim.Time{0, 25 * us, 75 * us},
		Sizes:       []int{1, 4096},
		DropProb:    []float64{0, 0.02},
		Burst:       []float64{1, 8},
		Iters:       4,
		Rate:        true,
		RateWarmup:  200 * us,
		RateMeasure: 800 * us,
		Sample:      100 * us,
	}
}

// ownGrid narrows g to the single point p: every axis holds p's own value
// and every scalar setting stays g's.
func ownGrid(g Grid, p Point) Grid {
	g.Strategies = []nic.Strategy{p.Strategy}
	g.Delays = []sim.Time{p.Delay}
	g.Sizes = []int{p.Size}
	g.IRQ = []host.IRQPolicy{p.IRQ}
	g.Queues = []int{p.Queues}
	g.Seeds = []uint64{p.Seed}
	g.SleepDisabled = []bool{p.SleepDisabled}
	g.Nodes = []int{p.Nodes}
	g.BgStreams = []int{p.BgStreams}
	g.DropProb = []float64{p.DropProb}
	g.Burst = []float64{p.Burst}
	return g
}

// jsonWithoutIndex is r's JSON form with the index zeroed, so results at
// different grid positions compare on everything else.
func jsonWithoutIndex(t *testing.T, r Result) []byte {
	t.Helper()
	r.Index = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTwinResultsMatchOwnRuns is the oracle for points that share a
// simulation: every result of a grid with repeated keys equals, in JSON
// minus its index, a one-point grid run at that point's own coordinates,
// and no two results share a series backing array.
func TestTwinResultsMatchOwnRuns(t *testing.T) {
	g := twinGrid()
	rs, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[*trace.Sample]int)
	for i, p := range g.Points() {
		if rs[i].Err != "" {
			t.Fatalf("point %d failed: %s", i, rs[i].Err)
		}
		own, err := Run(ownGrid(g, p), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := jsonWithoutIndex(t, rs[i]), jsonWithoutIndex(t, own[0]); !bytes.Equal(got, want) {
			t.Errorf("point %d differs from its own run:\n got %s\nwant %s", i, got, want)
		}
		if len(rs[i].Series) == 0 {
			t.Fatalf("point %d recorded no series", i)
		}
		if j, ok := series[&rs[i].Series[0]]; ok {
			t.Errorf("points %d and %d share a series backing array", j, i)
		}
		series[&rs[i].Series[0]] = i
	}
}

// TestTracedGridSimulatesEveryPoint: a shared recorder promises one
// timeline per point, so a traced grid runs every point's clusters even
// where points share a simulation key.
func TestTracedGridSimulatesEveryPoint(t *testing.T) {
	g := twinGrid()
	g.Trace = trace.New(trace.Config{Events: true, SampleEvery: g.Sample})
	rs, err := Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rate is on: each point builds a ping-pong cluster and a rate cluster.
	if got, want := g.Trace.Runs(), 2*len(rs); got != want {
		t.Errorf("recorder holds %d runs, want %d (two clusters for each of %d points)", got, want, len(rs))
	}
}

// TestCancelCompletesTwinsOfFinishedPoint cancels from the observer after
// the first result. Point 0 (Disabled, 0 us, 1 B) shares its simulation
// with points 2 and 4 (25 and 75 us), so all three complete, in that
// order and with point 0's measurements; every other point carries the
// cancellation, and the error counts the three.
func TestCancelCompletesTwinsOfFinishedPoint(t *testing.T) {
	us := sim.Microsecond
	g := Grid{
		Strategies: []nic.Strategy{nic.StrategyDisabled},
		Delays:     []sim.Time{0, 25 * us, 75 * us},
		Sizes:      []int{1, 4096},
		Iters:      3,
	}
	full, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen []int // one worker calls the observer, so no lock
	rs, err := RunContext(ctx, g, 1, func(r Result) {
		seen = append(seen, r.Index)
		cancel()
	})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cancelled after 3 of 6 points") {
		t.Fatalf("error = %v, want a cancellation after 3 of 6 points", err)
	}
	if want := []int{0, 2, 4}; !slices.Equal(seen, want) {
		t.Errorf("observer saw points %v, want %v", seen, want)
	}
	for i, r := range rs {
		if i%2 == 0 {
			if !reflect.DeepEqual(r, full[i]) {
				t.Errorf("point %d differs from the uncancelled run:\n got %+v\nwant %+v", i, r, full[i])
			}
		} else if !strings.HasPrefix(r.Err, "cancelled: ") {
			t.Errorf("point %d ran after the cancel (err %q)", i, r.Err)
		}
	}
}

// TestWorkersNeverExceedSimulations: the pool is capped by the
// simulations Run performs, not by the points it reports.
func TestWorkersNeverExceedSimulations(t *testing.T) {
	g := twinGrid()
	// Timeout: 3 delays x 2 sizes x 3 loss settings (clean, and 2% at
	// two burst lengths); Disabled the same at one delay.
	if got, want := g.Simulations(), 18+6; got != want {
		t.Errorf("Simulations() = %d, want %d of %d points", got, want, g.Size())
	}
	g.Strategies = []nic.Strategy{nic.StrategyDisabled}
	g.Sizes = []int{1}
	g.DropProb = nil
	if got := g.Simulations(); got != 1 {
		t.Errorf("Disabled at one size: Simulations() = %d, want 1", got)
	}
	if got := g.Workers(8); got != 1 {
		t.Errorf("one simulation on %d workers", got)
	}
	g.Trace = trace.New(trace.Config{})
	if got, want := g.Simulations(), g.Size(); got != want {
		t.Errorf("traced grid: Simulations() = %d, want every one of %d points", got, want)
	}
	if got := g.Workers(8); got != 1 {
		t.Errorf("traced grid on %d workers, want 1", got)
	}
	if got, want := (Grid{Sizes: make([]int, maxPoints+1)}).Simulations(), maxPoints+1; got != want {
		t.Errorf("oversized grid: Simulations() = %d, want its size %d", got, want)
	}
}
