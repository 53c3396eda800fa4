package exp

import (
	"strconv"
	"strings"
	"testing"

	"openmxsim/internal/cluster"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

var quick = Options{Seed: 1, Quick: true}

// parseRate reads a units.FormatRate cell ("490k" or "14507").
func parseRate(t *testing.T, cell string) float64 {
	t.Helper()
	mult := 1.0
	if strings.HasSuffix(cell, "k") {
		mult = 1000
		cell = strings.TrimSuffix(cell, "k")
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("bad rate cell %q: %v", cell, err)
	}
	return v * mult
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

func TestOverheadShape(t *testing.T) {
	rep := Overhead(quick)
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	disAll := parseFloat(t, rep.Rows[0][1])
	disOne := parseFloat(t, rep.Rows[1][1])
	coalAll := parseFloat(t, rep.Rows[2][1])
	// Paper: 965 ns uncoalesced, ~20% less coalesced, ~40 ns from binding.
	if disAll < 900 || disAll > 1050 {
		t.Errorf("uncoalesced overhead %.0f ns, want ~965", disAll)
	}
	if coalAll > disAll*0.85 {
		t.Errorf("coalesced overhead %.0f not <= 85%% of %.0f", coalAll, disAll)
	}
	if disOne >= disAll {
		t.Errorf("binding did not reduce overhead: %v vs %v", disOne, disAll)
	}
}

func TestFig5LatencyShape(t *testing.T) {
	rep := Fig5(quick)
	if len(rep.Rows) != len(pingPongSizes) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Small messages: disabled is dramatically faster than 75us coalescing.
	small := parseFloat(t, rep.Rows[0][2])
	if small > 0.3 {
		t.Errorf("disabled/coalesced at 1B = %.2f, want << 1", small)
	}
	// The normalized curve must rise with message size (coalescing's
	// relative cost shrinks as messages grow).
	large := parseFloat(t, rep.Rows[len(rep.Rows)-1][2])
	if large < 3*small {
		t.Errorf("normalized time did not rise with size: %.2f -> %.2f", small, large)
	}
}

func TestFig6OpenMXTracksDisabledForSmall(t *testing.T) {
	rep := Fig6(quick)
	for i := 0; i < 4; i++ { // 1B..64B rows
		dis := parseFloat(t, rep.Rows[i][2])
		omx := parseFloat(t, rep.Rows[i][3])
		if omx > dis*2 {
			t.Errorf("size %s: openmx %.2f not close to disabled %.2f",
				rep.Rows[i][0], omx, dis)
		}
	}
}

func TestTable1SmallRateOrdering(t *testing.T) {
	rep := Table1(quick)
	// Row 0 is 0B: Default, Disabled, Open-MX, Stream.
	def := parseRate(t, rep.Rows[0][1])
	dis := parseRate(t, rep.Rows[0][2])
	if def < dis {
		t.Errorf("0B: default (%.0f) below disabled (%.0f)", def, dis)
	}
	for col := 1; col <= 4; col++ {
		for row := 0; row < 3; row++ {
			if parseRate(t, rep.Rows[row][col]) <= 0 {
				t.Errorf("row %d col %d: zero rate", row, col)
			}
		}
	}
}

func TestTable2InterruptShape(t *testing.T) {
	rep := Table2(quick)
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	disIRQ := parseFloat(t, rep.Rows[0][2])
	tmoIRQ := parseFloat(t, rep.Rows[1][2])
	omxIRQ := parseFloat(t, rep.Rows[2][2])
	// Paper: disabled needs ~6x the interrupts; Open-MX needs slightly
	// fewer than the timeout.
	if disIRQ < 2*tmoIRQ {
		t.Errorf("disabled %.1f irq/msg not >> timeout %.1f", disIRQ, tmoIRQ)
	}
	if omxIRQ > tmoIRQ*1.2 {
		t.Errorf("openmx %.1f irq/msg above timeout %.1f", omxIRQ, tmoIRQ)
	}
	// Open-MX transfer time beats the timeout configuration.
	tmoT := parseFloat(t, rep.Rows[1][1])
	omxT := parseFloat(t, rep.Rows[2][1])
	if omxT >= tmoT {
		t.Errorf("openmx transfer %.1fus not faster than timeout %.1fus", omxT, tmoT)
	}
}

func TestTable2AblationRanking(t *testing.T) {
	rep := Table2Ablation(quick)
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Paper's ranking: rendezvous > pull-request > last-pull-reply >
	// notify (~0).
	rndv := parseFloat(t, rep.Rows[1][2])
	lastReply := parseFloat(t, rep.Rows[3][2])
	notify := parseFloat(t, rep.Rows[4][2])
	if rndv < lastReply {
		t.Errorf("rendezvous delta %.1f below last-reply delta %.1f", rndv, lastReply)
	}
	if notify > 10 {
		t.Errorf("notify delta %.1fus, paper found it ~0", notify)
	}
}

func TestTable3MisorderAddsLatency(t *testing.T) {
	rep := Table3(quick)
	for _, row := range rep.Rows {
		inOrder := parseFloat(t, row[1])
		deg3 := parseFloat(t, row[3])
		if deg3 < inOrder {
			t.Errorf("%s: degree-3 (%0.1f) faster than in-order (%0.1f)", row[0], deg3, inOrder)
		}
	}
}

func TestTable4And5Quick(t *testing.T) {
	rep4 := Table4(quick)
	if len(rep4.Rows) == 0 {
		t.Fatal("table4 empty")
	}
	rep5 := Table5(quick)
	if len(rep5.Rows) != 2 {
		t.Fatalf("table5 rows = %d", len(rep5.Rows))
	}
	// Disabled raises far more interrupts than the default (paper: x22).
	for _, row := range rep5.Rows {
		if !strings.Contains(row[2], "x") {
			t.Errorf("%s: disabled interrupts %q lack a multiplier annotation (want >=2x default)",
				row[0], row[2])
		}
	}
}

func TestExtensionsRun(t *testing.T) {
	if rep := Multiqueue(quick); len(rep.Rows) != 3 {
		t.Errorf("multiqueue rows = %d", len(rep.Rows))
	}
	if rep := Jumbo(quick); len(rep.Rows) != 4 {
		t.Errorf("jumbo rows = %d", len(rep.Rows))
	}
}

func TestAdaptiveHelpsLatencyMicrobenchmark(t *testing.T) {
	// Section VI: adaptive coalescing approaches disabled-like latency for
	// an idle ping-pong (traffic is sparse, delay converges to minimum).
	cfgA := cluster.Paper()
	cfgA.Strategy = nic.StrategyAdaptive
	outA, err := sweep.RunPingPong(cfgA, []int{128}, 8, sweep.Background{})
	if err != nil {
		t.Fatal(err)
	}
	cfgT := cluster.Paper()
	outT, err := sweep.RunPingPong(cfgT, []int{128}, 8, sweep.Background{})
	if err != nil {
		t.Fatal(err)
	}
	latA, latT := outA.Latency, outT.Latency
	if latA[128] >= latT[128] {
		t.Errorf("adaptive latency %v not below fixed-75us %v", latA[128], latT[128])
	}
}

func TestStreamHarnessDeterminism(t *testing.T) {
	cfg := cluster.Paper()
	cfg.Strategy = nic.StrategyStream
	spec := sweep.StreamSpec{Cluster: cfg, Size: 128,
		Warmup: 2 * sim.Millisecond, Measure: 10 * sim.Millisecond}
	a := sweep.RunStream(spec)
	b := sweep.RunStream(spec)
	if a != b {
		t.Fatalf("stream results differ: %+v vs %+v", a, b)
	}
}

func TestFig4Quick(t *testing.T) {
	rep := Fig4(quick)
	if len(rep.Rows) != 4 {
		t.Fatalf("fig4 quick rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		for c := 1; c < len(row); c++ {
			if parseRate(t, row[c]) < 10_000 {
				t.Errorf("delay %s col %d: rate %s implausibly low", row[0], c, row[c])
			}
		}
	}
}
