package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

// synth builds a synthetic result at (load intr/msg, latency us).
func synth(i int, strategy string, delayUS, load, latUS float64) sweep.Result {
	return sweep.Result{
		Index: i, Strategy: strategy, DelayUS: delayUS, SizeBytes: 128,
		IRQ: "round-robin", Queues: 1, Seed: 1, Nodes: 2,
		LatencyNS: int64(latUS * 1000), IntrPerMsg: load,
	}
}

func TestFrontierTagsDominance(t *testing.T) {
	rs := sweep.Results{
		synth(0, "disabled", 0, 2.0, 10), // min latency end
		synth(1, "timeout", 75, 1.0, 80), // min load end
		synth(2, "openmx", 25, 1.2, 12),  // the knee-ish compromise
		synth(3, "timeout", 25, 1.8, 40), // dominated by 2 on both axes
	}
	tr := Frontier(rs)
	wantFront := map[int]bool{0: true, 1: true, 2: true}
	for i, p := range tr.Points {
		if p.Dominated == wantFront[i] {
			t.Errorf("point %d: dominated = %v, want %v", i, p.Dominated, !wantFront[i])
		}
	}
	if len(tr.Front) != 3 {
		t.Fatalf("frontier size %d, want 3", len(tr.Front))
	}
	// Front is latency-ascending: disabled, openmx, timeout.
	if tr.Front[0] != 0 || tr.Front[1] != 2 || tr.Front[2] != 1 {
		t.Errorf("front order %v, want [0 2 1]", tr.Front)
	}
	knee, ok := tr.Knee()
	if !ok || knee.Index != 2 {
		t.Errorf("knee = %+v (ok=%v), want point 2 (the compromise)", knee.Index, ok)
	}
}

func TestFrontierErroredPointsNeverSurface(t *testing.T) {
	bad := synth(1, "timeout", 25, 0.1, 1) // would dominate everything...
	bad.Err = "panic: synthetic"           // ...but it failed
	rs := sweep.Results{synth(0, "openmx", 25, 1.0, 10), bad}
	tr := Frontier(rs)
	if !tr.Points[1].Dominated || tr.Points[1].Knee {
		t.Error("errored point surfaced on the frontier")
	}
	if len(tr.Front) != 1 || tr.Front[0] != 0 {
		t.Errorf("front %v, want [0]", tr.Front)
	}
}

func TestFrontierDuplicatesKeepFirst(t *testing.T) {
	rs := sweep.Results{
		synth(0, "openmx", 25, 1.0, 10),
		synth(1, "openmx", 25, 1.0, 10),
	}
	tr := Frontier(rs)
	if tr.Points[0].Dominated || !tr.Points[1].Dominated {
		t.Errorf("duplicate handling wrong: %v / %v",
			tr.Points[0].Dominated, tr.Points[1].Dominated)
	}
}

func TestScoreDialsTheWeight(t *testing.T) {
	rs := sweep.Results{
		synth(0, "disabled", 0, 2.0, 10),
		synth(1, "timeout", 75, 1.0, 80),
		synth(2, "openmx", 25, 1.2, 12),
	}
	tr := Frontier(rs)
	if p, ok := tr.Score(1); !ok || p.Index != 0 {
		t.Errorf("Score(1) = point %d, want 0 (pure latency)", p.Index)
	}
	if p, ok := tr.Score(0.001); !ok || p.Index != 1 {
		t.Errorf("Score(~0) = point %d, want 1 (pure load)", p.Index)
	}
	if p, ok := tr.Score(0.5); !ok || p.Index != 2 {
		t.Errorf("Score(0.5) = point %d, want 2 (compromise)", p.Index)
	}
}

func TestFrontierEmptyAndSerialization(t *testing.T) {
	tr := Frontier(nil)
	if _, ok := tr.Knee(); ok || tr.KneeIdx != -1 {
		t.Error("empty analysis produced a knee")
	}
	b, err := tr.JSON()
	if err != nil || !bytes.Contains(b, []byte(`"points": []`)) {
		t.Errorf("empty JSON = %s, %v", b, err)
	}
}

func TestSpecValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []Spec{
		{Size: -1},
		{BgStreams: -1},
		{Nodes: 1},
		{Strategies: []nic.Strategy{nic.Strategy(99)}},
		{Delays: []sim.Time{-sim.Microsecond}},
		{LatencyWeight: 1.5},
		{LatencyWeight: nan},
		{DropProb: nan},
		{DropProb: 0.02, Burst: nan},
		{DropProb: 0.02, Burst: inf},
		{DropProb: 0.02, Burst: -inf},
		// Past cluster.MaxNodes, directly or through the node each
		// background stream adds.
		{Nodes: cluster.MaxNodes + 1},
		{BgStreams: cluster.MaxNodes - 1},
	}
	for i, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid spec: %+v", i, spec)
		}
		if _, err := Search(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
	for _, spec := range []Spec{{Nodes: cluster.MaxNodes}, {BgStreams: cluster.MaxNodes - 2}} {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate refused a spec at the node cap: %+v: %v", spec, err)
		}
	}
}

// searchSpecSmall is a fast search problem for tests: 9-point lattice,
// three strategies, short ping-pongs, no rate measurement.
func searchSpecSmall(workers int) Spec {
	var delays []sim.Time
	for d := sim.Time(0); d <= 80*sim.Microsecond; d += 10 * sim.Microsecond {
		delays = append(delays, d)
	}
	return Spec{
		Size:  128,
		Iters: 4,
		Strategies: []nic.Strategy{
			nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX,
		},
		Delays:   delays,
		MaxEvals: 10,
		Workers:  workers,
	}
}

func TestSearchStaysInBudgetAndChooses(t *testing.T) {
	out, err := Search(searchSpecSmall(0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Evals == 0 || out.Evals > 10 {
		t.Fatalf("evals = %d, want 1..10", out.Evals)
	}
	if out.Evals != len(out.Evaluated) {
		t.Errorf("Evals %d != len(Evaluated) %d", out.Evals, len(out.Evaluated))
	}
	if out.Exhaustive != 3*9 {
		t.Errorf("Exhaustive = %d, want 27", out.Exhaustive)
	}
	if out.Knee.Strategy == "" || out.Best.Strategy == "" {
		t.Fatalf("search chose nothing: knee=%+v best=%+v", out.Knee, out.Best)
	}
	if out.Feedback.TargetIntrPerSec <= 0 || out.Feedback.MaxLatency <= 0 {
		t.Errorf("feedback goal not derived: %+v", out.Feedback)
	}
	for i, r := range out.Evaluated {
		if r.Index != i {
			t.Errorf("evaluated[%d] carries index %d", i, r.Index)
		}
		if r.Err != "" {
			t.Errorf("evaluated[%d] failed: %s", i, r.Err)
		}
	}
}

// TestSearchRefinesSubMicrosecondLattice is the regression test for
// locate() truncating the sweep's float microsecond delay back to ns: a
// lattice of non-whole-microsecond delays must still map evaluated points
// back to lattice indices, so the halving/refinement phases run (with the
// truncation bug the search silently degenerated to the coarse pass).
func TestSearchRefinesSubMicrosecondLattice(t *testing.T) {
	out, err := Search(Spec{
		Size:       128,
		Iters:      2,
		Strategies: []nic.Strategy{nic.StrategyTimeout},
		Delays: []sim.Time{
			0, 1500, 3000, 4500, 6000, 7500, // ns, none a whole us
		},
		MaxEvals: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The coarse pass evaluates 3 points (endpoints + midpoint); any
	// evaluation beyond that proves refinement located its incumbents.
	if out.Evals <= 3 {
		t.Errorf("evals = %d, want > 3 (refinement skipped: locate failed?)", out.Evals)
	}
}

// TestSearchMatchesSmokeGolden keeps the library in lockstep with the CI
// smoke job: the Spec below is exactly what
//
//	omxtune -strategies timeout,openmx -delays 0:60:15 -budget 8 -iters 4 -json
//
// builds, and the committed golden file is that command's output. A
// mismatch here means either the search changed behaviour (regenerate the
// golden deliberately) or determinism broke (fix it).
func TestSearchMatchesSmokeGolden(t *testing.T) {
	out, err := Search(Spec{
		Size:  128,
		Iters: 4,
		Strategies: []nic.Strategy{
			nic.StrategyTimeout, nic.StrategyOpenMX,
		},
		Delays: []sim.Time{
			0, 15 * sim.Microsecond, 30 * sim.Microsecond,
			45 * sim.Microsecond, 60 * sim.Microsecond,
		},
		MaxEvals: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := out.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/smoke.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("outcome diverged from testdata/smoke.golden.json; regenerate with\n  go run ./cmd/omxtune -strategies timeout,openmx -delays 0:60:15 -budget 8 -iters 4 -json > internal/tune/testdata/smoke.golden.json\nif the change is intentional.\n--- got ---\n%.2000s", got.String())
	}
}

// TestSearchDeterministicAcrossWorkerCounts is the tuner's contract
// (mirroring the sweep-determinism CI diff): the same Spec must converge
// to the identical outcome — chosen point and full JSON — at any worker
// count.
func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	serial, err := Search(searchSpecSmall(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Search(searchSpecSmall(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Knee.Strategy != parallel.Knee.Strategy || serial.Knee.DelayUS != parallel.Knee.DelayUS {
		t.Fatalf("worker count changed the knee: 1 worker -> %s@%gus, 8 workers -> %s@%gus",
			serial.Knee.Strategy, serial.Knee.DelayUS,
			parallel.Knee.Strategy, parallel.Knee.DelayUS)
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
		t.Fatalf("worker count changed the outcome JSON:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", js, jp)
	}
}

// TestSearchContextCancelled pins the supervision seam: a search under an
// already-cancelled context evaluates nothing and surfaces the context's
// error (never a half-built Outcome), and a mid-search cancel triggered
// from the observer stops the search with the same error shape — the
// server's job supervisor relies on both to distinguish "user cancelled"
// from "search failed".
func TestSearchContextCancelled(t *testing.T) {
	spec := Spec{
		Strategies: []nic.Strategy{nic.StrategyTimeout, nic.StrategyOpenMX},
		Delays:     []sim.Time{0, 15 * sim.Microsecond, 30 * sim.Microsecond},
		Iters:      2,
		MaxEvals:   8,
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if out, err := SearchContext(pre, spec); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SearchContext = (%v, %v), want context.Canceled", out, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	spec.Workers = 1
	spec.Observer = func(sweep.Result) {
		evals++
		if evals == 2 {
			cancel()
		}
	}
	out, err := SearchContext(ctx, spec)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel returned (%v, %v), want context.Canceled", out, err)
	}
	if evals >= spec.MaxEvals {
		t.Fatalf("observer saw %d evaluations; the cancel did not stop the search early", evals)
	}
}

// TestSpecCanonicalStripsExecutionKnobs pins the cache-key form: two
// spellings of the same problem canonicalize identically whatever their
// Workers/Observer, so a shared result cache never splits by machine
// shape.
func TestSpecCanonicalStripsExecutionKnobs(t *testing.T) {
	a := Spec{Size: 128}.Canonical()
	b := Spec{Size: 128, Workers: 7, Observer: func(sweep.Result) {}}.Canonical()
	if b.Workers != 0 || b.Observer != nil {
		t.Fatalf("Canonical kept execution knobs: %+v", b)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("equivalent specs canonicalized differently:\n%s\n%s", aj, bj)
	}
}
