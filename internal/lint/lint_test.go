package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"openmxsim/internal/lint"
	"openmxsim/internal/lint/analysistest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata"}, parts...)...)
}

func TestForbiddenCallsFixture(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "nic"), lint.ForbiddenCalls)
	if sum.Suppressed != 1 {
		t.Errorf("got %d suppressions, want 1 (the audited time.Now)", sum.Suppressed)
	}
}

func TestMapRangeFixture(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "fabric"), lint.MapRange)
	if sum.Suppressed != 1 {
		t.Errorf("got %d suppressions, want 1 (the audited sum loop)", sum.Suppressed)
	}
}

func TestGoroutineFixture(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "omx"), lint.Goroutine)
	if sum.Suppressed != 1 {
		t.Errorf("got %d suppressions, want 1 (the trailing-form allow)", sum.Suppressed)
	}
}

func TestHotPathAllocFixture(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "hotpath"), lint.HotPathAlloc)
	if sum.Hotpaths != 3 {
		t.Errorf("got %d hotpath functions, want 3", sum.Hotpaths)
	}
	if sum.Suppressed != 1 {
		t.Errorf("got %d suppressions, want 1 (the guarded append)", sum.Suppressed)
	}
}

// TestDirectiveFixture runs the full suite so both the used and the unused
// allow behave as the fixture documents.
func TestDirectiveFixture(t *testing.T) {
	analysistest.Run(t, fixture("src", "host"), lint.Analyzers()...)
}

// TestControlFixture is the negative control: a package whose name is not
// simulation-visible draws no findings from the entire suite, whatever it
// does with clocks, maps, and goroutines.
func TestControlFixture(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "tools"), lint.Analyzers()...)
	if sum.Findings != 0 {
		t.Errorf("control fixture produced %d findings, want 0", sum.Findings)
	}
}

// TestServeFixtureOutsideBoundary pins the service boundary: the serve
// control plane lives outside the simulation-visible set, so its
// goroutines, wall-clock deadlines, and map-ordered bookkeeping — all
// load-bearing for an HTTP service — draw no findings. The fixture
// mirrors internal/serve's structure; if the boundary ever moves, the
// suite lights up here before it silences real findings elsewhere.
func TestServeFixtureOutsideBoundary(t *testing.T) {
	sum := analysistest.Run(t, fixture("src", "serve"), lint.Analyzers()...)
	if sum.Findings != 0 {
		t.Errorf("serve fixture produced %d findings, want 0 (control plane must stay outside the sim-visible boundary)", sum.Findings)
	}
}

// TestSimVisibleBoundary pins the boundary map itself in both
// directions: the packages whose determinism the reports rest on are
// inside, and the operational layers (service, sweep pool, CLIs) are
// outside — where goroutines and clocks are legal and audited by tests
// instead.
func TestSimVisibleBoundary(t *testing.T) {
	for _, path := range []string{
		"openmxsim/internal/sim", "openmxsim/internal/fabric",
		"openmxsim/internal/nic", "openmxsim/internal/omx",
		"openmxsim/internal/host", "openmxsim/internal/chaos",
		"openmxsim/internal/cluster", "openmxsim/internal/mpi",
		"openmxsim/internal/proc", "openmxsim/internal/trace",
	} {
		if !lint.SimVisible(path) {
			t.Errorf("%s fell outside the sim-visible boundary; the suite no longer polices it", path)
		}
	}
	for _, path := range []string{
		"openmxsim/internal/serve", "openmxsim/internal/sweep",
		"openmxsim/internal/tune", "openmxsim/internal/cliflag",
		"openmxsim/cmd/omxserve",
	} {
		if lint.SimVisible(path) {
			t.Errorf("%s moved inside the sim-visible boundary; its intentional concurrency/clocks would now be findings", path)
		}
	}
}

// TestCIRedFixtureFails proves the seeded CI fixture actually trips the
// suite — if this test fails, the red step in the lint job is testing
// nothing.
func TestCIRedFixtureFails(t *testing.T) {
	pkg, err := lint.LoadDir(fixture("ci_red", "sim"))
	if err != nil {
		t.Fatalf("loading ci_red fixture: %v", err)
	}
	findings, _ := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if len(findings) == 0 {
		t.Fatal("ci_red fixture produced no findings; the CI red step would pass vacuously")
	}
	for _, f := range findings {
		if f.Analyzer == "forbiddencalls" && strings.Contains(f.Message, "time.Now") {
			return
		}
	}
	t.Fatalf("ci_red fixture findings do not include the seeded time.Now violation: %v", findings)
}

// TestRepoIsClean is the self-test: the repository's own simulation
// packages must pass the full suite with zero findings. A legitimate new
// escape hatch belongs in an //omxlint:allow directive with a
// justification, not in an exception list here.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every package; skipped in -short")
	}
	root, err := lint.ModuleRoot()
	if err != nil {
		t.Fatalf("resolving module root: %v", err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	findings, sum := lint.Run(pkgs, lint.Analyzers())
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
	if sum.Hotpaths == 0 {
		t.Error("no //omxlint:hotpath functions found; annotations lost?")
	}
	if sum.Suppressed == 0 {
		t.Error("no suppressions counted; the audited allow directives lost?")
	}
}
