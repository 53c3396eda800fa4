package cliflag

import (
	"flag"
	"strings"
	"time"

	"reflect"
	"testing"

	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
)

// badDelays are delay specs Delays must refuse. The range
// "9223372036854775000:9223372036854775807:1000" once hung POST /v1/sweep.
var badDelays = []string{"1:2", "5:1:1", "0:10:0", "0:10:-1", "a,b", "1:b:3",
	"-5:10:5", "0:4096:1", "0:9223372036854775807:1",
	"9223372036854775000:9223372036854775807:1000", "9223372036854775807"}

func TestDelaysListAndRange(t *testing.T) {
	got, err := Delays("25,75")
	if err != nil || !reflect.DeepEqual(got, []sim.Time{25 * sim.Microsecond, 75 * sim.Microsecond}) {
		t.Errorf("Delays list = %v, %v", got, err)
	}
	got, err = Delays("0:100:50")
	want := []sim.Time{0, 50 * sim.Microsecond, 100 * sim.Microsecond}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Delays range = %v, %v; want %v", got, err, want)
	}
	for _, bad := range badDelays {
		if _, err := Delays(bad); err == nil {
			t.Errorf("Delays(%q) accepted", bad)
		}
	}
}

func TestStrategiesAndPolicies(t *testing.T) {
	got, err := Strategies("openmx, stream")
	if err != nil || !reflect.DeepEqual(got, []nic.Strategy{nic.StrategyOpenMX, nic.StrategyStream}) {
		t.Errorf("Strategies = %v, %v", got, err)
	}
	if _, err := Strategies("openmx,bogus"); err == nil {
		t.Error("unknown strategy accepted")
	}
	ps, err := IRQPolicies("all,single-core")
	if err != nil || !reflect.DeepEqual(ps, []host.IRQPolicy{host.IRQRoundRobin, host.IRQSingleCore}) {
		t.Errorf("IRQPolicies = %v, %v", ps, err)
	}
}

func TestNumericLists(t *testing.T) {
	is, err := Ints("1, 128,4096", "size")
	if err != nil || !reflect.DeepEqual(is, []int{1, 128, 4096}) {
		t.Errorf("Ints = %v, %v", is, err)
	}
	if _, err := Ints("x", "size"); err == nil {
		t.Error("bad int accepted")
	}
	us, err := Uint64s("1,7", "seed")
	if err != nil || !reflect.DeepEqual(us, []uint64{1, 7}) {
		t.Errorf("Uint64s = %v, %v", us, err)
	}
	if _, err := Uint64s("-1", "seed"); err == nil {
		t.Error("negative seed accepted")
	}
	for _, bad := range []string{"NaN", "0.1,Inf", "-inf"} {
		if _, err := Float64s(bad, "drop probability"); err == nil {
			t.Errorf("Float64s(%q) accepted", bad)
		}
	}
}

func TestSplitDropsBlanks(t *testing.T) {
	if got := Split(" a, ,b,,c "); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Split = %v", got)
	}
	if got := Split(""); got != nil {
		t.Errorf("Split(\"\") = %v, want nil", got)
	}
}

// TestGridSpecSharedVocabulary: the string-axes form the server accepts
// over HTTP must build exactly the grid the omxsweep flags build — the
// byte-identical server-vs-offline contract rides on this equality.
func TestGridSpecSharedVocabulary(t *testing.T) {
	spec := GridSpec{
		Strategies: "timeout,openmx",
		Delays:     "0:50:25",
		Sizes:      "1,4096",
		IRQ:        "round-robin",
		Seeds:      "1,7",
		Drop:       "0,0.02",
		Burst:      "1",
		Iters:      5,
		Rate:       true,
		QFrames:    64,
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(g.Strategies) != 2 || len(g.Delays) != 3 || len(g.Sizes) != 2 ||
		len(g.Seeds) != 2 || len(g.DropProb) != 2 {
		t.Fatalf("axes mis-parsed: %+v", g)
	}
	if g.Iters != 5 || !g.Rate || g.QFrames != 64 {
		t.Errorf("scalar knobs lost: %+v", g)
	}
	// The zero GridSpec is the paper-default single point.
	g, err = GridSpec{}.Grid()
	if err != nil {
		t.Fatalf("zero GridSpec: %v", err)
	}
	if g.Size() != 1 {
		t.Errorf("zero GridSpec expands to %d points, want 1", g.Size())
	}
	// Axis errors surface with the axis's own message.
	if _, err := (GridSpec{Sizes: "12,bogus"}).Grid(); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := (GridSpec{Strategies: "nope"}).Grid(); err == nil {
		t.Error("bad strategy accepted")
	}
}

// TestServiceFlagsRegister pins the service flag group's names and
// defaults: loopback-only addr, cache off, bounded queue, finite job
// deadline.
func TestServiceFlagsRegister(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	old := flag.CommandLine
	flag.CommandLine = fs
	defer func() { flag.CommandLine = old }()

	addr, dir, jobs, timeout := Addr(), CacheDir(), MaxJobs(), JobTimeout()
	if err := fs.Parse([]string{"-addr", "127.0.0.1:0", "-cache-dir", "/tmp/c", "-max-jobs", "3", "-job-timeout", "30s"}); err != nil {
		t.Fatal(err)
	}
	if *addr != "127.0.0.1:0" || *dir != "/tmp/c" || *jobs != 3 || *timeout != 30*time.Second {
		t.Errorf("parsed %q %q %d %v", *addr, *dir, *jobs, *timeout)
	}

	fs2 := flag.NewFlagSet("defaults", flag.ContinueOnError)
	flag.CommandLine = fs2
	addr, dir, jobs, timeout = Addr(), CacheDir(), MaxJobs(), JobTimeout()
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(*addr, "127.0.0.1") {
		t.Errorf("default -addr %q is not loopback-only", *addr)
	}
	if *dir != "" || *jobs <= 0 || *timeout <= 0 {
		t.Errorf("defaults: dir=%q jobs=%d timeout=%v", *dir, *jobs, *timeout)
	}
}
