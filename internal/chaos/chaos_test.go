package chaos

import (
	"math"
	"slices"
	"testing"

	"openmxsim/internal/sim"
)

func TestLinkFlapWindows(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name string
		lf   LinkFlap
		t    sim.Time
		want bool
	}{
		{"one-shot before", LinkFlap{DownAt: 10 * ms, UpAt: 20 * ms}, 9 * ms, false},
		{"one-shot start inclusive", LinkFlap{DownAt: 10 * ms, UpAt: 20 * ms}, 10 * ms, true},
		{"one-shot inside", LinkFlap{DownAt: 10 * ms, UpAt: 20 * ms}, 15 * ms, true},
		{"one-shot end exclusive", LinkFlap{DownAt: 10 * ms, UpAt: 20 * ms}, 20 * ms, false},
		{"permanent equal bounds", LinkFlap{DownAt: 10 * ms, UpAt: 10 * ms}, 1000 * ms, true},
		{"permanent zero UpAt", LinkFlap{DownAt: 10 * ms}, 10 * ms, true},
		{"permanent before start", LinkFlap{DownAt: 10 * ms}, 9 * ms, false},
	}
	for _, tc := range cases {
		if got := tc.lf.down(tc.t); got != tc.want {
			t.Errorf("%s: down(%v) = %v, want %v", tc.name, tc.t, got, tc.want)
		}
	}
}

func TestBurstyStationaryLoss(t *testing.T) {
	for _, tc := range []struct{ p, burst float64 }{
		{0.01, 1}, {0.01, 4}, {0.05, 8}, {0.2, 16}, {0.4, 2},
	} {
		ge := Bursty(tc.p, tc.burst)
		if got := ge.Loss(); math.Abs(got-tc.p) > 1e-12 {
			t.Errorf("Bursty(%g, %g).Loss() = %g, want %g", tc.p, tc.burst, got, tc.p)
		}
	}
	if ge := Bursty(0, 8); ge.Loss() != 0 {
		t.Errorf("Bursty(0, 8).Loss() = %g, want 0", ge.Loss())
	}
	if ge := Bursty(1, 8); ge.Loss() != 1 {
		t.Errorf("Bursty(1, 8).Loss() = %g, want 1", ge.Loss())
	}
	// burst <= 1 degenerates to Bernoulli: both states lose at rate p.
	ge := Bursty(0.03, 0.5)
	if ge.GoodLoss != 0.03 || ge.BadLoss != 0.03 {
		t.Errorf("Bursty(0.03, 0.5) = %+v, want uniform 0.03", ge)
	}
}

// TestEngineEmpiricalLoss drives the per-node chain with many frames and
// checks the realized drop rate converges on the stationary target, for
// uniform and bursty shapes alike.
func TestEngineEmpiricalLoss(t *testing.T) {
	const frames = 200_000
	for _, tc := range []struct{ p, burst float64 }{
		{0.02, 1}, {0.02, 8}, {0.1, 4},
	} {
		e, err := New(Scenario{Loss: Bursty(tc.p, tc.burst), Seed: 9}, 1)
		if err != nil {
			t.Fatal(err)
		}
		drops := 0
		for i := 0; i < frames; i++ {
			if e.Drop(0, 1, sim.Time(i)) {
				drops++
			}
		}
		got := float64(drops) / frames
		// Bursty chains mix slowly, so allow 15% relative slack.
		if math.Abs(got-tc.p) > 0.15*tc.p {
			t.Errorf("Bursty(%g, %g): empirical loss %g over %d frames", tc.p, tc.burst, got, frames)
		}
		st := e.Stats()
		if st.GEDrops != uint64(drops) {
			t.Errorf("GEDrops = %d, want %d", st.GEDrops, drops)
		}
		if tc.burst > 1 && st.Transitions == 0 {
			t.Errorf("Bursty(%g, %g): chain never left Good", tc.p, tc.burst)
		}
	}
}

// TestDecideDeterministic requires two engines built from the same
// scenario to make bit-identical per-frame decisions — the property the
// par-N equivalence of every resilience experiment rests on.
func TestDecideDeterministic(t *testing.T) {
	sc := Scenario{
		Flaps: []LinkFlap{{Node: 1, DownAt: 5 * sim.Millisecond, UpAt: 6 * sim.Millisecond}},
		Loss:  Bursty(0.05, 4),
		Seed:  1234,
	}
	build := func() *Engine {
		e, err := New(sc, 3)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1, e2 := build(), build()
	for i := 0; i < 50_000; i++ {
		now := sim.Time(i) * 200
		src, dst := i%3, (i+1)%3
		d1 := e1.Drop(src, dst, now)
		d2 := e2.Drop(src, dst, now)
		if d1 != d2 {
			t.Fatalf("frame %d: decisions diverge: %v vs %v", i, d1, d2)
		}
	}
	if e1.Stats() != e2.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", e1.Stats(), e2.Stats())
	}
}

// TestDecidePerNodeStreams checks that interleaving order across source
// nodes does not change any single node's decision sequence: node state is
// keyed by source, which is what makes shard layout invisible.
func TestDecidePerNodeStreams(t *testing.T) {
	sc := Scenario{Loss: Bursty(0.1, 4), Seed: 77}
	solo, err := New(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want []bool
	for i := 0; i < 10_000; i++ {
		want = append(want, solo.Drop(0, 1, sim.Time(i)))
	}
	mixed, err := New(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		// Node 1's draws are interleaved; node 0's sequence must not move.
		mixed.Drop(1, 0, sim.Time(i))
		if got := mixed.Drop(0, 1, sim.Time(i)); got != want[i] {
			t.Fatalf("frame %d: node 0 decision changed when node 1 traffic interleaved", i)
		}
	}
}

func TestDecideFlaps(t *testing.T) {
	ms := sim.Millisecond
	sc := Scenario{
		Flaps: []LinkFlap{{Node: 1, DownAt: 10 * ms, UpAt: 20 * ms}},
		Seed:  1,
	}
	e, err := New(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Down destination drops frames from either side; charged to source.
	if !e.Drop(0, 1, 15*ms) {
		t.Error("frame toward down node not dropped")
	}
	if !e.Drop(1, 0, 15*ms) {
		t.Error("frame from down node not dropped")
	}
	if e.Drop(0, 1, 25*ms) {
		t.Error("frame dropped after link came back")
	}
	if st := e.Stats(); st.FlapDrops != 2 {
		t.Errorf("stats = %+v, want 2 flap drops", st)
	}
	if e.NodeStats(0).FlapDrops != 1 || e.NodeStats(1).FlapDrops != 1 {
		t.Errorf("per-node flap drops = %+v / %+v, want 1 each",
			e.NodeStats(0), e.NodeStats(1))
	}
	// Unknown source node: windows still apply, no chain state mutates.
	if !e.Drop(9, 1, 15*ms) {
		t.Error("unknown-node frame toward down node not dropped")
	}
	if e.NodeStats(9) != (NodeStats{}) {
		t.Errorf("unknown node grew stats: %+v", e.NodeStats(9))
	}
}

func TestScenarioValidate(t *testing.T) {
	ms := sim.Millisecond
	nan := math.NaN()
	bad := []Scenario{
		{Flaps: []LinkFlap{{Node: -1}}},
		{Flaps: []LinkFlap{{DownAt: -ms}}},
		{Loss: &GilbertElliott{GoodLoss: 1.5}},
		{Loss: &GilbertElliott{PBadGood: -0.1}},
		{Loss: &GilbertElliott{GoodLoss: nan}},
		{Loss: &GilbertElliott{BadLoss: nan}},
		{Loss: &GilbertElliott{PGoodBad: nan}},
		{Loss: &GilbertElliott{PBadGood: nan}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d validated: %+v", i, sc)
		}
	}
	good := Scenario{
		Flaps: []LinkFlap{{Node: 0, DownAt: ms, UpAt: 2 * ms}},
		Loss:  Bursty(0.01, 8),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good scenario rejected: %v", err)
	}
}

func TestScenarioEdges(t *testing.T) {
	ms := sim.Millisecond
	sc := Scenario{Flaps: []LinkFlap{
		{Node: 0, DownAt: 30 * ms, UpAt: 40 * ms},
		{Node: 0, DownAt: 10 * ms}, // permanent: down edge only
		{Node: 1, DownAt: 5 * ms, UpAt: 6 * ms},
		{Node: 0, DownAt: 50 * ms, UpAt: 51 * ms},
	}}
	got := sc.Edges(0)
	want := []sim.Time{10 * ms, 30 * ms, 40 * ms, 50 * ms, 51 * ms}
	if len(got) != len(want) {
		t.Fatalf("Edges(0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Edges(0) = %v, want %v", got, want)
		}
	}
	if n := len(sc.Edges(2)); n != 0 {
		t.Errorf("Edges(2) returned %d edges for a node with no flaps", n)
	}
}

// FuzzScenario builds a Scenario from fuzzed flap windows, loss-chain
// probabilities and a seed, and checks the engine's contract: New fails
// exactly when Validate does; an accepted scenario's probabilities lie in
// [0,1]; Drop never panics and two engines built from the same scenario
// agree draw for draw; Edges is ascending; and a flapped link is down
// throughout its window.
func FuzzScenario(f *testing.F) {
	ms := int64(sim.Millisecond)
	// resilience-flap: a 40 ms outage and a permanent one on node 1.
	f.Add(uint8(2), 1, ms, 41*ms, 1, ms, int64(0), false, 0.0, 0.0, 0.0, 0.0, uint64(1))
	// The bursty chain of the resilience sweeps, without flaps.
	ge := Bursty(0.02, 8)
	f.Add(uint8(0), 0, int64(0), int64(0), 0, int64(0), int64(0), true, ge.GoodLoss, ge.BadLoss, ge.PGoodBad, ge.PBadGood, uint64(7))
	// A chain whose Good-state loss is NaN: Validate must refuse it.
	f.Add(uint8(1), 0, 2*ms, 3*ms, 0, int64(0), int64(0), true, math.NaN(), 0.5, 0.1, 0.1, uint64(3))

	f.Fuzz(func(t *testing.T, nflaps uint8, node0 int, down0, up0 int64, node1 int, down1, up1 int64,
		loss bool, goodLoss, badLoss, pGoodBad, pBadGood float64, seed uint64) {
		flaps := []LinkFlap{
			{Node: node0, DownAt: sim.Time(down0), UpAt: sim.Time(up0)},
			{Node: node1, DownAt: sim.Time(down1), UpAt: sim.Time(up1)},
		}
		sc := Scenario{Flaps: flaps[:int(nflaps)%3], Seed: seed}
		if loss {
			sc.Loss = &GilbertElliott{GoodLoss: goodLoss, BadLoss: badLoss, PGoodBad: pGoodBad, PBadGood: pBadGood}
		}
		const nodes = 3
		verr := sc.Validate()
		e1, err := New(sc, nodes)
		if (err == nil) != (verr == nil) {
			t.Fatalf("New error %v, Validate error %v", err, verr)
		}
		if err != nil {
			return
		}
		if ge := sc.Loss; ge != nil {
			for _, p := range []float64{ge.GoodLoss, ge.BadLoss, ge.PGoodBad, ge.PBadGood} {
				if !(p >= 0 && p <= 1) {
					t.Fatalf("accepted probability %v outside [0,1]: %+v", p, *ge)
				}
			}
		}
		e2, err := New(sc, nodes)
		if err != nil {
			t.Fatal(err)
		}

		// Draw times near every flap edge and across the first 100 ms;
		// sources and destinations include a node outside the cluster.
		var edges []sim.Time
		for _, lf := range sc.Flaps {
			edges = append(edges, lf.DownAt, lf.DownAt+1, lf.UpAt-1, lf.UpAt)
		}
		r := sim.NewRNG(seed)
		for i := 0; i < 400; i++ {
			now := sim.Time(r.Intn(int(100 * sim.Millisecond)))
			if len(edges) > 0 && r.Intn(2) == 0 {
				now = max(edges[r.Intn(len(edges))], 0)
			}
			src, dst := r.Intn(nodes+1), r.Intn(nodes+1)
			d1, d2 := e1.Drop(src, dst, now), e2.Drop(src, dst, now)
			if d1 != d2 {
				t.Fatalf("draw %d: Drop(%d, %d, %v) = %v and %v from one scenario", i, src, dst, now, d1, d2)
			}
			if (e1.LinkDown(src, now) || e1.LinkDown(dst, now)) && !d1 {
				t.Fatalf("draw %d: Drop(%d, %d, %v) passed a frame over a down link", i, src, dst, now)
			}
		}
		if e1.Stats() != e2.Stats() {
			t.Fatalf("stats diverge: %+v vs %+v", e1.Stats(), e2.Stats())
		}

		for _, lf := range sc.Flaps {
			if ts := sc.Edges(lf.Node); !slices.IsSorted(ts) {
				t.Fatalf("Edges(%d) = %v, not ascending", lf.Node, ts)
			}
			inside := []sim.Time{lf.DownAt, sim.Time(math.MaxInt64)}
			if lf.UpAt > lf.DownAt {
				inside = []sim.Time{lf.DownAt, lf.DownAt + (lf.UpAt-lf.DownAt)/2, lf.UpAt - 1}
			}
			for _, at := range inside {
				if !e1.LinkDown(lf.Node, at) {
					t.Fatalf("flap %+v: LinkDown(%d, %v) = false inside the window", lf, lf.Node, at)
				}
			}
		}
	})
}
