// Package cliflag centralizes the flag vocabulary shared by the omx*
// commands (omxbench, omxsim, omxsweep, omxtune, omxserve): the -par,
// service, fault and trace flags, and the parsers for strategy, delay,
// IRQ-policy, and numeric list flags. Before this package each command
// carried its own copy and they had already drifted; a flag spelling
// accepted by one command is now accepted by all of them.
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"openmxsim/internal/chaos"
	"openmxsim/internal/fabric"
	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/trace"
)

// Par registers the canonical -par flag on the default flag set: the
// number of shard engines per simulated cluster (cluster.Config
// .Parallelism). 1 is the serial reference engine; higher values produce
// bit-identical results. Only omxsim and omxbench register it: sweeps
// (omxsweep, omxserve) and the tuner run every point serially.
func Par() *int {
	return flag.Int("par", 1, "simulation shards per cluster (1 = serial reference engine; results are identical at any value)")
}

// Addr registers the canonical -addr flag: the host:port the simulation
// service listens on. The default binds loopback only — exposing a
// simulation executor to a network is an explicit decision.
func Addr() *string {
	return flag.String("addr", "127.0.0.1:8080", "host:port the service listens on (loopback by default)")
}

// CacheDir registers the canonical -cache-dir flag: the directory of the
// crash-safe content-addressed result cache shared by omxserve and the
// offline CLIs. Empty (the default) disables caching entirely.
func CacheDir() *string {
	return flag.String("cache-dir", "", "content-addressed result cache directory ('' = no cache)")
}

// MaxJobs registers the canonical -max-jobs flag: the admission-queue
// bound of the simulation service. Submissions beyond it are shed with
// HTTP 429 rather than queued into unbounded memory.
func MaxJobs() *int {
	return flag.Int("max-jobs", 64, "admission queue bound; beyond it submissions are shed with 429")
}

// JobTimeout registers the canonical -job-timeout flag: the per-job
// deadline of the simulation service. A job still running past it is
// cancelled at the next between-points seam and reported failed.
func JobTimeout() *time.Duration {
	return flag.Duration("job-timeout", 10*time.Minute, "per-job wall-clock deadline (0 = none)")
}

// Strategy parses a single coalescing-strategy name.
func Strategy(name string) (nic.Strategy, error) {
	return nic.ParseStrategy(name)
}

// Strategies parses a comma-separated strategy list.
func Strategies(spec string) ([]nic.Strategy, error) {
	var out []nic.Strategy
	for _, s := range Split(spec) {
		st, err := nic.ParseStrategy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// DelayUS converts a microsecond count (the unit every delay flag uses)
// into simulated time.
func DelayUS(us int) sim.Time { return sim.Time(us) * sim.Microsecond }

const (
	// maxRangeDelays bounds the values one lo:hi:step range may expand
	// to. omxserve parses request bodies before admission control, so an
	// unbounded range would let one request allocate without limit.
	maxRangeDelays = 4096
	// maxDelayUS is the largest microsecond count whose nanosecond value
	// fits in sim.Time.
	maxDelayUS = math.MaxInt64 / int(sim.Microsecond)
)

// Delays parses a delay axis in microseconds: either a comma list
// ("25,75") or an inclusive lo:hi:step range ("0:100:25") of at most
// maxRangeDelays values with 0 <= lo <= hi. No delay may exceed
// maxDelayUS.
func Delays(spec string) ([]sim.Time, error) {
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad delay range %q, want lo:hi:step", spec)
		}
		lo, err1 := strconv.Atoi(parts[0])
		hi, err2 := strconv.Atoi(parts[1])
		step, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || step <= 0 || lo < 0 || hi < lo || hi > maxDelayUS {
			return nil, fmt.Errorf("bad delay range %q", spec)
		}
		// Iterate by count: with 0 <= lo <= hi neither hi-lo nor any
		// lo+i*step <= hi can overflow, where d += step could wrap.
		gaps := (hi - lo) / step
		if gaps >= maxRangeDelays {
			return nil, fmt.Errorf("bad delay range %q: more than %d delays", spec, maxRangeDelays)
		}
		ds := make([]sim.Time, gaps+1)
		for i := range ds {
			ds[i] = DelayUS(lo + i*step)
		}
		return ds, nil
	}
	var ds []sim.Time
	for _, s := range Split(spec) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad delay %q: %v", s, err)
		}
		if v > maxDelayUS {
			return nil, fmt.Errorf("bad delay %q: want at most %d us", s, maxDelayUS)
		}
		ds = append(ds, DelayUS(v))
	}
	return ds, nil
}

// IRQPolicies parses a comma-separated IRQ-routing list.
func IRQPolicies(spec string) ([]host.IRQPolicy, error) {
	var out []host.IRQPolicy
	for _, s := range Split(spec) {
		p, err := host.ParseIRQPolicy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Ints parses a comma-separated int list; what names the values in error
// messages ("size", "queue count", ...).
func Ints(spec, what string) ([]int, error) {
	var out []int
	for _, s := range Split(spec) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", what, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Uint64s parses a comma-separated uint64 list (seed axes).
func Uint64s(spec, what string) ([]uint64, error) {
	var out []uint64
	for _, s := range Split(spec) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", what, s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Float64s parses a comma-separated list of finite floats (probability
// axes). NaN and infinities are refused: no axis means anything by them,
// and a grid holding one cannot be encoded as JSON.
func Float64s(spec, what string) ([]float64, error) {
	var out []float64
	for _, s := range Split(spec) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", what, s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad %s %q: want a finite number", what, s)
		}
		out = append(out, v)
	}
	return out, nil
}

// FaultFlags holds the static fault-injection flag group registered by
// Fault: uniform per-frame drop/duplicate/delay probabilities applied to
// every frame of the run (fabric.Fault). Time-varying faults (flaps,
// bursty loss) are the chaos scenario layer's job, not these knobs'.
type FaultFlags struct {
	Drop      *float64
	Dup       *float64
	DelayProb *float64
	DelayUS   *int
}

// Fault registers the canonical static fault flags (-drop, -dup, -delayp,
// -delayt) on the default flag set.
func Fault() *FaultFlags {
	return &FaultFlags{
		Drop:      flag.Float64("drop", 0, "per-frame drop probability in [0,1)"),
		Dup:       flag.Float64("dup", 0, "per-frame duplicate probability in [0,1)"),
		DelayProb: flag.Float64("delayp", 0, "per-frame reorder-delay probability in [0,1)"),
		DelayUS:   flag.Int("delayt", 100, "reorder hold-back in us for frames -delayp selects"),
	}
}

// Build validates the parsed values and assembles the fault, or nil when
// every probability is zero (no fault injected).
func (ff *FaultFlags) Build() (*fabric.Fault, error) {
	for _, v := range []struct {
		name string
		p    float64
	}{
		{"-drop", *ff.Drop}, {"-dup", *ff.Dup}, {"-delayp", *ff.DelayProb},
	} {
		if !(v.p >= 0 && v.p < 1) { // NaN fails too
			return nil, fmt.Errorf("%s %g outside [0,1)", v.name, v.p)
		}
	}
	if *ff.DelayUS < 0 {
		return nil, fmt.Errorf("-delayt %d is negative", *ff.DelayUS)
	}
	if *ff.Drop == 0 && *ff.Dup == 0 && *ff.DelayProb == 0 {
		return nil, nil
	}
	return &fabric.Fault{
		DropProb:  *ff.Drop,
		DupProb:   *ff.Dup,
		DelayProb: *ff.DelayProb,
		DelayTime: DelayUS(*ff.DelayUS),
	}, nil
}

// TraceFlags holds the telemetry flag group registered by Trace: the
// Chrome trace-event timeline path, the virtual-time sampling interval,
// and the sampled-series output path.
type TraceFlags struct {
	Trace     *string
	Sample    *string
	SampleOut *string
}

// Trace registers the canonical telemetry flags (-trace, -sample,
// -sample-out) on the default flag set.
func Trace() *TraceFlags {
	return &TraceFlags{
		Trace:     flag.String("trace", "", "write a Chrome/Perfetto trace-event timeline (JSON) to this path"),
		Sample:    flag.String("sample", "", "virtual-time metric sampling interval as a Go duration, e.g. 200us ('' = off)"),
		SampleOut: flag.String("sample-out", "", "write the sampled metric series to this path (.csv = CSV, else JSON)"),
	}
}

// Build validates the parsed values and creates the recorder, or nil when
// no telemetry was requested (the zero-overhead default).
func (tf *TraceFlags) Build() (*trace.Recorder, error) {
	every, err := SampleInterval(*tf.Sample)
	if err != nil {
		return nil, err
	}
	if *tf.SampleOut != "" && every == 0 {
		return nil, fmt.Errorf("-sample-out needs -sample to record a series")
	}
	if *tf.Trace == "" && every == 0 {
		return nil, nil
	}
	return trace.New(trace.Config{SampleEvery: every, Events: *tf.Trace != ""}), nil
}

// WriteOutputs writes the recorder's trace and series files as the parsed
// flags request. A nil recorder (telemetry off) writes nothing.
func (tf *TraceFlags) WriteOutputs(rec *trace.Recorder) error {
	if rec == nil {
		return nil
	}
	if path := *tf.Trace; path != "" {
		if err := writeTo(path, rec.WriteChromeTrace); err != nil {
			return err
		}
	}
	if path := *tf.SampleOut; path != "" {
		write := rec.WriteSeriesJSON
		if strings.HasSuffix(path, ".csv") {
			write = rec.WriteSeriesCSV
		}
		if err := writeTo(path, write); err != nil {
			return err
		}
	}
	return nil
}

// writeTo streams one exporter into a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Flaps parses a -flap spec: comma-separated "node:down[:up]" link-flap
// windows with Go-duration offsets ("3:10ms:12ms"; omitted or zero up
// means down forever). Empty means no flaps (nil).
func Flaps(spec string) ([]chaos.LinkFlap, error) {
	var out []chaos.LinkFlap
	for _, s := range Split(spec) {
		parts := strings.Split(s, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("bad flap %q, want node:down[:up]", s)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil || node < 0 {
			return nil, fmt.Errorf("bad flap node %q", parts[0])
		}
		down, err := time.ParseDuration(parts[1])
		if err != nil || down < 0 {
			return nil, fmt.Errorf("bad flap down time %q", parts[1])
		}
		lf := chaos.LinkFlap{Node: node, DownAt: sim.Time(down.Nanoseconds())}
		if len(parts) == 3 {
			up, err := time.ParseDuration(parts[2])
			if err != nil || up < 0 {
				return nil, fmt.Errorf("bad flap up time %q", parts[2])
			}
			lf.UpAt = sim.Time(up.Nanoseconds())
		}
		out = append(out, lf)
	}
	return out, nil
}

// GridSpec is the string-form sweep description shared by omxsweep's
// flags and omxserve's JSON job submissions: every axis in exactly the
// spelling the CLI accepts, so a job POSTed to the server and a sweep run
// offline parse through one vocabulary and produce one grid — the
// byte-identical-results contract between the two starts here. Empty
// fields leave the corresponding Grid axis empty (paper defaults).
type GridSpec struct {
	Strategies string `json:"strategies,omitempty"`
	Delays     string `json:"delays,omitempty"`
	Sizes      string `json:"sizes,omitempty"`
	IRQ        string `json:"irq,omitempty"`
	Queues     string `json:"queues,omitempty"`
	Nodes      string `json:"nodes,omitempty"`
	Bg         string `json:"bg,omitempty"`
	Seeds      string `json:"seeds,omitempty"`
	Drop       string `json:"drop,omitempty"`
	Burst      string `json:"burst,omitempty"`
	Iters      int    `json:"iters,omitempty"`
	Rate       bool   `json:"rate,omitempty"`
	QFrames    int    `json:"qframes,omitempty"`
	// Sample is the virtual-time metric-sampling interval as a Go
	// duration ("200us", "1ms"); empty disables per-point series.
	Sample string `json:"sample,omitempty"`
}

// Grid parses every axis and assembles the sweep grid. Errors carry the
// axis vocabulary's own messages, pinpointing the bad element.
func (s GridSpec) Grid() (sweep.Grid, error) {
	var g sweep.Grid
	var err error
	if g.Strategies, err = Strategies(s.Strategies); err != nil {
		return g, err
	}
	if g.Delays, err = Delays(s.Delays); err != nil {
		return g, err
	}
	if g.Sizes, err = Ints(s.Sizes, "size"); err != nil {
		return g, err
	}
	if g.IRQ, err = IRQPolicies(s.IRQ); err != nil {
		return g, err
	}
	if g.Queues, err = Ints(s.Queues, "queue count"); err != nil {
		return g, err
	}
	if g.Nodes, err = Ints(s.Nodes, "node count"); err != nil {
		return g, err
	}
	if g.BgStreams, err = Ints(s.Bg, "background stream count"); err != nil {
		return g, err
	}
	if g.Seeds, err = Uint64s(s.Seeds, "seed"); err != nil {
		return g, err
	}
	if g.DropProb, err = Float64s(s.Drop, "drop probability"); err != nil {
		return g, err
	}
	if g.Burst, err = Float64s(s.Burst, "burst length"); err != nil {
		return g, err
	}
	g.Iters = s.Iters
	g.Rate = s.Rate
	g.QFrames = s.QFrames
	if g.Sample, err = SampleInterval(s.Sample); err != nil {
		return g, err
	}
	return g, nil
}

// SampleInterval parses a metric-sampling interval: a Go duration string
// ("200us", "1ms") mapped onto virtual time; empty means disabled (0).
func SampleInterval(spec string) (sim.Time, error) {
	if spec == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return 0, fmt.Errorf("bad sample interval %q: %v", spec, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad sample interval %q: want > 0", spec)
	}
	return sim.Time(d.Nanoseconds()), nil
}

// Split breaks a comma-separated list, trimming blanks and dropping empty
// entries.
func Split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
