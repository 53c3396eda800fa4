package sweep

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the CSV goldens in testdata")

// TestCSVGolden pins the CSV bytes of a sweep and of its metric series.
// The grid covers every cell kind the encoders write: a lossy point
// (non-zero retransmits), rate columns (floats), both sleep_disabled
// values (bools) and a sampled series. A deliberate schema change
// regenerates the goldens with
//
//	go test ./internal/sweep -run TestCSVGolden -update
func TestCSVGolden(t *testing.T) {
	// The sampling interval outlasts the 10 ms resend timeout, so a
	// sampler does not stop during a loss pause and the series records
	// the retries.
	rec := trace.New(trace.Config{SampleEvery: 11 * sim.Millisecond})
	g := Grid{
		Strategies:    []nic.Strategy{nic.StrategyOpenMX},
		Delays:        []sim.Time{25 * sim.Microsecond},
		Sizes:         []int{128, 64 << 10},
		SleepDisabled: []bool{false, true},
		DropProb:      []float64{0, 0.05},
		Burst:         []float64{1},
		Iters:         5,
		Rate:          true,
		RateWarmup:    sim.Millisecond,
		RateMeasure:   2 * sim.Millisecond,
		Sample:        11 * sim.Millisecond,
		Trace:         rec,
	}
	rs, err := Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lossy, rated, sampledLoss bool
	for _, r := range rs {
		lossy = lossy || r.Retransmits > 0
		rated = rated || r.RateMsgPerSec > 0
		for _, s := range r.Series {
			sampledLoss = sampledLoss || s.Retransmits > 0
		}
	}
	if !lossy || !rated || !sampledLoss {
		t.Fatalf("grid no longer covers every cell kind: lossy %v, rated %v, sampled loss %v", lossy, rated, sampledLoss)
	}

	var results, series bytes.Buffer
	if err := rs.WriteCSV(&results); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		got  []byte
	}{
		{"testdata/results.golden.csv", results.Bytes()},
		{"testdata/series.golden.csv", series.Bytes()},
	} {
		if *update {
			if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s differs from the encoder's output; got:\n%.1500s", f.path, f.got)
		}
	}
}
