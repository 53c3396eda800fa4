package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// allocsSlack is how far an experiment's allocation count may rise above
// its testdata/allocs.json entry before the test fails.
const allocsSlack = 1.2

// TestReportsBitIdenticalAcrossParallelism regenerates registry
// experiments on the serial reference engine and on sharded engines and
// requires byte-identical reports: conservative parallel execution must be
// invisible to every model. Every cluster a report builds shards, except
// the ping-pong harnesses, which always run serially; the stream, NAS and
// incast experiments genuinely shard. Two seeds guard against a single
// lucky ordering. In -short mode (and under -race, where each sharded run
// costs minutes) only the cheapest experiments run; the full registry runs
// in CI.
//
// The serial reports double as the model's fingerprint: each must equal
// its entry in testdata/reports-seed{1,7}.json, the output of
// `omxbench -quick -json -run all -seed N`. The seed-1 serial run also
// counts its heap allocations, which may exceed the testdata/allocs.json
// entry by at most allocsSlack (not checked under -race). -v logs every
// count. A deliberate model change regenerates the goldens with omxbench
// and copies the logged counts into allocs.json, so the change shows up
// as a reviewed diff.
func TestReportsBitIdenticalAcrossParallelism(t *testing.T) {
	ids := IDs()
	if testing.Short() || raceBuild {
		ids = []string{"fig5", "table2", "table3", "sweep", "incast", "resilience-incast"}
	}
	seeds := []uint64{1, 7}
	golden := map[uint64]map[string][]byte{}
	for _, seed := range seeds {
		golden[seed] = loadGoldenReports(t, seed)
	}
	var allocs map[string]uint64
	readTestdata(t, "allocs.json", &allocs)
	for _, id := range ids {
		runner, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			rep := runner(Options{Seed: seed, Quick: true, Par: 1})
			runtime.ReadMemStats(&m1)
			if seed == 1 && !raceBuild {
				checkAllocs(t, id, m1.Mallocs-m0.Mallocs, allocs)
			}
			serial, err := rep.JSON()
			if err != nil {
				t.Fatalf("%s seed %d (par 1): %v", id, seed, err)
			}
			if want, ok := golden[seed][id]; !ok {
				t.Errorf("%s seed %d: no entry in testdata/reports-seed%d.json", id, seed, seed)
			} else if string(serial) != string(want) {
				t.Errorf("%s seed %d: report differs from testdata/reports-seed%d.json\ngot:  %s\nwant: %s",
					id, seed, seed, serial, want)
			}
			for _, par := range []int{2, 4, 8} {
				sharded, err := runner(Options{Seed: seed, Quick: true, Par: par}).JSON()
				if err != nil {
					t.Fatalf("%s seed %d (par %d): %v", id, seed, par, err)
				}
				if string(sharded) != string(serial) {
					t.Errorf("%s seed %d: report differs between par 1 and par %d\npar 1: %s\npar %d: %s",
						id, seed, par, serial, par, sharded)
				}
			}
		}
	}
}

// checkAllocs fails when id's measured allocation count exceeds its
// allocs.json entry by more than allocsSlack.
func checkAllocs(t *testing.T, id string, got uint64, allocs map[string]uint64) {
	t.Helper()
	t.Logf("%s allocs: %d", id, got)
	want, ok := allocs[id]
	if !ok {
		t.Errorf("%s: no entry in testdata/allocs.json (measured %d allocs)", id, got)
		return
	}
	if float64(got) > float64(want)*allocsSlack {
		t.Errorf("%s: %d allocs, more than %.1fx the %d in testdata/allocs.json", id, got, allocsSlack, want)
	}
}

// loadGoldenReports reads testdata/reports-seed<seed>.json, a JSON array
// of reports, and re-encodes each with Report.JSON, so the comparison does
// not depend on the array framing around them.
func loadGoldenReports(t *testing.T, seed uint64) map[string][]byte {
	t.Helper()
	var reps []Report
	readTestdata(t, fmt.Sprintf("reports-seed%d.json", seed), &reps)
	out := make(map[string][]byte, len(reps))
	for i := range reps {
		b, err := reps[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		out[reps[i].ID] = b
	}
	return out
}

func readTestdata(t *testing.T, name string, into any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("testdata/%s: %v", name, err)
	}
}
