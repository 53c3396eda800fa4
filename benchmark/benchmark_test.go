package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestWorkloadsToy runs every workload at toy scale, timed and traced,
// and checks the checks pass and the printed metric names are exactly
// those BENCHMARK.json declares.
func TestWorkloadsToy(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	opt := options{seconds: 0, minReps: 2, microBatch: 200 * time.Microsecond, calibOps: 1000}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, err := newWorkload(name, 7, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			var res result
			if trace {
				res = traceRun(w, opt, &stdout, &stderr)
			} else {
				res = summarize(name, 7, []measurement{measure(w, opt)}, &stdout, &stderr)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2*w.ops {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if len(got) != len(want[trace]) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", name, trace, len(got), len(want[trace]))
			}
			for n, u := range want[trace] {
				if got[n] != u {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, n, got[n], u)
				}
			}
			if !trace && (res.Metrics["wall_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0) {
				t.Errorf("%s: non-positive timing %v", name, res.Metrics)
			}
		}
	}
}

// TestSummarizePoolsProcesses checks that a timed run pools every
// process's reps and fails when one process does.
func TestSummarizePoolsProcesses(t *testing.T) {
	m := measurement{
		Reps:      []repTimes{{Wall: 2, Setup: 1, Calib: refCalibSeconds}, {Wall: 4, Setup: 1, Calib: 2 * refCalibSeconds}},
		PeakRSSMB: 10, Digest: "aa", Attempted: 2,
	}
	var stdout, stderr bytes.Buffer
	res := summarize("toy", 1, []measurement{m, m, m}, &stdout, &stderr)
	if !res.Correct || res.Attempted != 6 || res.Metrics["wall_s"].Value != 2 || res.Metrics["setup_s"].Value != 0.75 {
		t.Errorf("pooled %+v, want correct, 6 attempted, wall_s 2, setup_s 0.75", res)
	}
	failed := measurement{Problems: []string{"toy: seed 5: exit status 2"}}
	if res := summarize("toy", 1, []measurement{m, failed}, &stdout, &stderr); res.Correct {
		t.Error("a run with a failed process passed")
	}
}

// TestPercentile pins percentile to Python's
// statistics.quantiles(method="inclusive").
func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		// statistics.quantiles(range(1, 11), n=10, method="inclusive")[0]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 10, 1.9},
		// statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")[2]
		{[]float64{4, 1, 3, 2}, 75, 3.25},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{5}, 10, 5},
		{[]float64{1, 2}, 100, 2},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}
