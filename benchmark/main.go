// Command benchmark measures how much host time and memory openmxsim takes
// to regenerate the paper's results, end to end and layer by layer.
//
// Each invocation runs one workload (see workloads.go):
//
//	benchmark --workload nas-lu [--seed 1] [--seconds 20] [--trace 0|1] [--scale bench|user]
//
// With --trace 0 it repeats the workload, untraced, for --seconds in
// several child processes and prints the end-to-end metrics. With --trace
// 1 it instead profiles the reps, reads the layers' counters, runs the
// layer microbenchmarks and prints the per-layer metrics. Run seed s
// simulates seeds s×4 to s×4+3, one per child process; the traced run
// simulates s×4. --scale user runs, in place of the timed reps, the
// configuration users run, of which a rep is a shortened form, so that its
// per-layer metrics can be compared with the reps'. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// Every rep is checked: a World or point error counts as a failed op, and
// the deterministic outcome must hash to the same digest on every rep of a
// process. Each process also checks once that the benchmark's own
// layer-level drive equals the library entry point (nas.Run,
// sweep.RunIncast) on the same configuration. A failed check prints
// "correct": false and exits 1.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees; --trace 0 prints
// exactly these. Times are medians over the run's reps, in reference-host
// seconds (see calib.go); peak_rss_mb is the median of the processes'
// peaks.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// forks is how many child processes a timed run measures in, one after
// another, each for an equal share of the seconds and with a simulation
// seed of its own. On incast-64 and sweep-grid the host time depends on
// the seed by a few percent (which shard, and which points, do the extra
// work), and a process's speed shifts with where its memory lands; pooling
// several processes' reps averages both out, as JMH does with its forks.
const forks = 4

// options are the knobs of one measurement. The command line fixes the
// seconds; tests shrink the rest.
type options struct {
	seconds float64
	// minReps is the fewest timed reps, whatever the budget.
	minReps int
	// microBatch is the target duration of one microbenchmark batch.
	microBatch time.Duration
	// calibOps is the calibration's size (see calib.go).
	calibOps int
	// profileDir, when set, receives the traced run's CPU profile.
	profileDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "host seconds to spend on reps")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (profiled)")
	sc := fs.String("scale", string(benchScale), "bench: the reps the metrics are defined on; user: the configuration users run")
	profileDir := fs.String("profile-dir", "", "directory for the traced run's CPU profile")
	fork := fs.Bool("fork", false, "simulate --seed itself, measure in this process only and print the samples as JSON (a timed run's child)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: want --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--scale bench|user]")
		return 2
	}
	simSeed := *seed
	if !*fork {
		simSeed *= forks
	}
	w, err := newWorkload(*name, simSeed, scale(*sc))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	opt := options{
		seconds:    *seconds,
		minReps:    4,
		microBatch: 10 * time.Millisecond,
		calibOps:   calibOps,
		profileDir: *profileDir,
	}

	var res result
	switch {
	case *fork:
		if err := json.NewEncoder(stdout).Encode(measure(w, opt)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *trace == 1:
		res = traceRun(w, opt, stdout, stderr)
	default:
		res = summarize(w.name, *seed, forked(w, scale(*sc), *seconds/forks, stderr), stdout, stderr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what one process measured of a workload's timed reps,
// and what its checks found; a timed run's children print it as JSON.
type measurement struct {
	Seed      uint64     `json:"seed"`
	Reps      []repTimes `json:"reps"`
	PeakRSSMB float64    `json:"peak_rss_mb"`
	Digest    string     `json:"sim_digest"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Problems  []string   `json:"problems"`
}

// repTimes are one rep's times in seconds, as measured on this host.
type repTimes struct {
	Wall  float64 `json:"wall"`
	Setup float64 `json:"setup"`
	Calib float64 `json:"calib"`
}

// forked measures w in forks child processes of this program, one after
// another, each for the given seconds, the i-th simulating seed w.seed+i.
// A child that fails yields a measurement holding only the problem.
func forked(w *workload, sc scale, seconds float64, stderr io.Writer) []measurement {
	exe, err := os.Executable()
	if err != nil {
		return []measurement{{Problems: []string{fmt.Sprintf("%s: finding this program: %v", w.name, err)}}}
	}
	var ms []measurement
	for i := uint64(0); i < forks; i++ {
		m := measurement{Seed: w.seed + i}
		var out bytes.Buffer
		cmd := exec.Command(exe, "--fork", "--workload", w.name, "--scale", string(sc),
			"--seed", strconv.FormatUint(m.Seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			m.Problems = []string{fmt.Sprintf("%s: seed %d: %v", w.name, m.Seed, err)}
		} else if err := json.Unmarshal(out.Bytes(), &m); err != nil {
			m.Problems = []string{fmt.Sprintf("%s: seed %d: reading its samples: %v", w.name, m.Seed, err)}
		}
		ms = append(ms, m)
	}
	return ms
}

// measure runs w's timed reps in this process, then checks the workload's
// alternative configuration once.
func measure(w *workload, opt options) measurement {
	start := time.Now()
	c := newChecker(w)
	// One untimed rep warms up the heap and caches. The peak RSS is read
	// right after it, before any calibration has run: it is then the memory
	// one simulation of the workload takes. Read later, it would creep up
	// with the reps (the runtime keeps freed stacks and spans for reuse),
	// report more memory on a faster host, and jump by up to 20% with when
	// the collector ran during a calibration.
	repeat(w.setup, nil, 0, 1, c.record, nil)
	m := measurement{Seed: w.seed, PeakRSSMB: peakRSSMB()}
	reps := repeat(w.setup, w.probe, opt.seconds-time.Since(start).Seconds(), opt.minReps, c.record, opt.calibration())
	for _, r := range reps {
		m.Reps = append(m.Reps, repTimes{Wall: r.wall.Seconds(), Setup: r.setup.Seconds(), Calib: r.calib})
	}
	if w.alt != nil {
		repeat(w.alt, nil, 0, 1, c.recordAlt, nil)
	}
	m.Digest = fmt.Sprintf("%x", c.digest)
	m.Attempted, m.Failed, m.Problems = c.attempted, c.failed, c.problems
	return m
}

// summarize pools the processes' measurements of the named workload into
// the end-to-end metrics and prints a human-readable summary to stdout;
// problems found by the checks go to stderr.
func summarize(name string, seed uint64, ms []measurement, stdout, stderr io.Writer) result {
	var walls, setups, rawWalls, rawSetups, cals, peaks []float64
	var problems, lines []string
	digest := sha256.New()
	res := result{Metrics: map[string]metricValue{}}
	for _, m := range ms {
		var own []float64
		for _, r := range m.Reps {
			own = append(own, r.Wall*hostScale(r.Calib))
			setups = append(setups, r.Setup*hostScale(r.Calib))
			rawWalls = append(rawWalls, r.Wall)
			rawSetups = append(rawSetups, r.Setup)
			cals = append(cals, r.Calib)
		}
		walls = append(walls, own...)
		lines = append(lines, fmt.Sprintf("process seed=%d reps=%d wall_s %.6g peak_rss_mb %.2f digest %s",
			m.Seed, len(m.Reps), median(own), m.PeakRSSMB, m.Digest))
		peaks = append(peaks, m.PeakRSSMB)
		res.Attempted += m.Attempted
		res.Failed += m.Failed
		problems = append(problems, m.Problems...)
		fmt.Fprintf(digest, "%d %s\n", m.Seed, m.Digest)
	}
	values := map[string]float64{
		"wall_s":      median(walls),
		"setup_s":     median(setups),
		"peak_rss_mb": median(peaks),
	}
	fmt.Fprintf(stdout, "%s seed=%d processes=%d reps=%d\n", name, seed, len(ms), len(walls))
	printSpread(stdout, "wall_s", walls)
	printSpread(stdout, "setup_s", setups)
	fmt.Fprintln(stdout, "measured on this host:")
	printSpread(stdout, "  wall_s", rawWalls)
	printSpread(stdout, "  setup_s", rawSetups)
	printSpread(stdout, "  calib_s", cals)
	fmt.Fprintln(stdout, strings.Join(lines, "\n"))
	fmt.Fprintf(stdout, "sim_digest %s seed=%d %x\n", name, seed, digest.Sum(nil))
	return finish(res, endToEnd, values, problems, stderr)
}

// traceRun measures w's per-layer metrics in this process.
func traceRun(w *workload, opt options, stdout, stderr io.Writer) result {
	c := newChecker(w)
	values := map[string]float64{}
	traced(w, opt, c, values, stdout)
	fmt.Fprintf(stdout, "sim_digest %s seed=%d %x\n", w.name, w.seed, c.digest)
	res := result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	return finish(res, perLayer, values, c.problems, stderr)
}

// finish fills the result's metrics and verdict and reports the problems.
func finish(res result, defs []metricDef, values map[string]float64, problems []string, stderr io.Writer) result {
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "benchmark: check failed:", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res
}

// rep is one measured repetition of a workload.
type rep struct {
	// wall covers set-up and simulation; setup the construction before the
	// first simulated event, or the workload's probe when it has one.
	wall, setup time.Duration
	// calib is the median time of the calibrations run on either side of
	// the rep, in seconds; 0 when none ran.
	calib      float64
	out        outcome
	allocBytes uint64
	gcCycles   uint32
}

// runRep runs one rep of setup from a collected heap, so no rep pays for
// the garbage of the one before it. When probe is set, it replaces the
// rep's own set-up time.
func runRep(setup func() func() outcome, probe func()) rep {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	simulate := setup()
	t1 := time.Now()
	out := simulate()
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	r := rep{
		wall:       t2.Sub(t0),
		setup:      t1.Sub(t0),
		out:        out,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
	}
	if probe != nil {
		runtime.GC()
		t0 := time.Now()
		probe()
		r.setup = time.Since(t0)
	}
	return r
}

// repeat runs reps until the budget of host seconds is spent, and never
// fewer than minReps, handing each outcome to record. When calib is set,
// it runs after each rep until the calibrations have taken a quarter of
// the rep's time. The host's speed changes over seconds, so each rep is
// scaled by the calibrations on either side of it.
func repeat(setup func() func() outcome, probe func(), seconds float64, minReps int, record func(outcome), calib func() float64) []rep {
	var reps []rep
	var before []float64
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		r := runRep(setup, probe)
		record(r.out)
		var after []float64
		for spent := 0.0; calib != nil && spent < r.wall.Seconds()/4; {
			after = append(after, calib())
			spent += after[len(after)-1]
		}
		r.calib = median(append(before, after...))
		before = after
		reps = append(reps, r)
	}
	return reps
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// printSpread prints a timing's 10th, 50th and 90th percentiles, its
// interquartile range and its sample count.
func printSpread(w io.Writer, name string, xs []float64) {
	fmt.Fprintf(w, "%s p10 %.6g median %.6g p90 %.6g IQR %.3g n=%d\n", name,
		percentile(xs, 10), median(xs), percentile(xs, 90),
		percentile(xs, 75)-percentile(xs, 25), len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, interpolating linearly
// between the closest ranks (Python's statistics.quantiles with
// method="inclusive"), so it never lies outside the samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	i := int(pos)
	if i >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[i] + (pos-float64(i))*(d[i+1]-d[i])
}
