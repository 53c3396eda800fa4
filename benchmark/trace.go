package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"openmxsim/internal/cluster"
)

// profileHz is the CPU profile's sampling rate; the default 100 Hz gives
// too few samples to the small layers.
const profileHz = 1000

// cpuLayers are the internal/ packages the CPU profile's samples are
// charged to, each reported as <layer>.cpu_pct.
var cpuLayers = []string{"sim", "proc", "mpi", "omx", "nic", "host", "fabric", "wire", "sweep", "cluster"}

// perLayer are the metrics --trace 1 prints. Every workload reports every
// one; a layer a workload does not use reads 0, and so does a counter the
// workload cannot observe (see README.md).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	defs = append(defs, []metricDef{
		{"runtime.gc_pct", "%"},
		{"runtime.sched_pct", "%"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.group_speedup", "ratio"},
		{"nic.interrupts", "count"},
		{"nic.packets_per_intr", "ratio"},
		{"host.wakeups", "count"},
		{"fabric.frames", "count"},
		{"fabric.drops", "count"},
		{"omx.retransmits", "count"},
		{"cluster.new_us", "us"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
	}...)
	for _, m := range micros {
		defs = append(defs, metricDef{m.name, "ns"})
	}
	return defs
}()

// traced fills values with the per-layer metrics. A quarter of the budget
// goes to untraced reps, which give the exact counts, allocation, the rep
// time the event rate divides by and the host's speed; half to reps under
// the CPU profiler, which give each layer's share of CPU time; a quarter to
// the workload's alternative parallelism. Then cluster.New and the layer
// microbenchmarks are timed on their own. Host times are in
// reference-host units, as in the end-to-end metrics.
func traced(w *workload, opt options, c *checker, values map[string]float64, stdout io.Writer) {
	reps := repeat(w.setup, nil, opt.seconds/4, 3, c.record, opt.calibration())
	walls, cals := scaledWalls(reps)
	var allocs, gcs []float64
	for _, r := range reps {
		allocs = append(allocs, float64(r.allocBytes)/1e6)
		gcs = append(gcs, float64(r.gcCycles))
	}
	// Host times measured apart from the reps are scaled by the reps'
	// median calibration.
	scale := hostScale(median(cals))
	k := reps[0].out.counts
	values["sim.events"] = float64(k.Events)
	values["sim.events_per_s"] = float64(k.Events) / median(walls)
	values["nic.interrupts"] = float64(k.Interrupts)
	if k.Interrupts > 0 {
		values["nic.packets_per_intr"] = float64(k.RxPackets) / float64(k.Interrupts)
	}
	values["host.wakeups"] = float64(k.Wakeups)
	values["fabric.frames"] = float64(k.Frames)
	values["fabric.drops"] = float64(k.Drops)
	values["omx.retransmits"] = float64(k.Retransmits)
	values["runtime.alloc_mb"] = median(allocs)
	values["runtime.gc_cycles"] = median(gcs)

	prof, n, err := profileReps(w, c, opt.seconds/2)
	if err == nil && opt.profileDir != "" {
		err = os.WriteFile(filepath.Join(opt.profileDir, w.name+".pprof"), prof, 0o644)
	}
	var self map[string]float64
	if err == nil {
		self, err = layerSelfTimes(prof)
	}
	if err != nil {
		c.problem("CPU profile: %v", err)
	}
	var total float64
	for _, s := range self {
		total += s
	}
	for pkg, s := range self {
		values[pkg+"_pct"] = 100 * s / total
	}

	if w.alt != nil {
		altWalls, _ := scaledWalls(repeat(w.alt, nil, opt.seconds/4, 1, c.recordAlt, opt.calibration()))
		if w.altMetric != "" {
			values[w.altMetric] = median(walls) / median(altWalls)
		}
	}
	news := make([]float64, 64)
	for i := range news {
		t0 := time.Now()
		cluster.New(w.cfg)
		news[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	values["cluster.new_us"] = median(news) * scale
	for _, m := range micros {
		runtime.GC()
		values[m.name] = measureMicro(m, opt.microBatch) * scale
	}

	fmt.Fprintf(stdout, "%s seed=%d reps=%d profiled=%d host_scale=%.4f (traced)\n", w.name, w.seed, len(reps), n, scale)
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "%-24s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, m := range micros {
		if m.moves == w.name {
			fmt.Fprintf(stdout, "%-24s should move this workload's wall_s\n", m.name)
		}
	}
	// CPU the profile charged to packages without a metric of their own
	// (nas, params, chaos, ...), so the shares visibly add up to 100.
	var others []string
	for pkg := range self {
		if !isMetric(pkg + "_pct") {
			others = append(others, pkg)
		}
	}
	sort.Strings(others)
	for _, pkg := range others {
		fmt.Fprintf(stdout, "%-24s %14.6g %% (no metric)\n", pkg+"_pct", values[pkg+"_pct"])
	}
	if k.Enqueued > 0 {
		fmt.Fprintf(stdout, "fabric.queue_wait        %14.6g virtual us per frame\n", float64(k.QueueWaitNS)/float64(k.Enqueued)/1e3)
	}
}

// scaledWalls returns the reps' wall times in reference-host seconds, and
// the calibration times they were scaled by.
func scaledWalls(reps []rep) (walls, cals []float64) {
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds()*hostScale(r.calib))
		cals = append(cals, r.calib)
	}
	return walls, cals
}

func isMetric(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// profileReps runs reps under the CPU profiler for the given host seconds,
// and at least once, and returns the gzipped pprof profile and the rep
// count. Unlike timed reps, profiled reps run back to back without a
// forced collection in between, so the garbage collector's share is the
// one the workload itself causes.
func profileReps(w *workload, c *checker, seconds float64) ([]byte, int, error) {
	var buf bytes.Buffer
	runtime.GC()
	// Setting the rate first is the only way to sample faster than 100 Hz;
	// StartCPUProfile then warns on stderr that it cannot reset the rate.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, 0, err
	}
	n := 0
	for start := time.Now(); n == 0 || time.Since(start).Seconds() < seconds; n++ {
		c.record(w.setup()())
	}
	pprof.StopCPUProfile()
	return buf.Bytes(), n, nil
}

// layerSelfTimes charges every CPU sample of a gzipped pprof profile to the
// innermost openmxsim/internal/<pkg> frame on its stack, so runtime frames
// (allocation, channel operations) count for the repo code that called
// them. The result maps "<pkg>.cpu" to seconds; samples with no repo frame
// go to "runtime.gc" when a garbage-collector frame is on the stack and to
// "runtime.sched" otherwise.
func layerSelfTimes(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	self := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		// The last value of a Go CPU profile sample is CPU nanoseconds.
		secs := float64(s.values[len(s.values)-1]) / 1e9
		bucket, gc := "", false
	stack:
		for _, loc := range s.locs {
			// A location's functions run innermost (inlined) first.
			for _, fn := range p.locs[loc] {
				name := p.name(fn)
				if pkg, ok := strings.CutPrefix(name, "openmxsim/internal/"); ok {
					bucket = pkg[:strings.IndexAny(pkg+".", "./")] + ".cpu"
					break stack
				}
				gc = gc || strings.HasPrefix(name, "runtime.gc") ||
					strings.HasPrefix(name, "runtime.bgsweep") ||
					strings.HasPrefix(name, "runtime.bgscavenge")
			}
		}
		switch {
		case bucket != "":
		case gc:
			bucket = "runtime.gc"
		default:
			bucket = "runtime.sched"
		}
		self[bucket] += secs
	}
	return self, nil
}

// profile is the part of a pprof profile (profile.proto) the attribution
// reads.
type profile struct {
	strs    []string
	funcs   map[uint64]uint64   // function id -> name (string table index)
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) name(fn uint64) string {
	if i := p.funcs[fn]; i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

var errProto = errors.New("malformed pprof profile")

// decodeProfile decodes the profile.proto fields the attribution needs:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]uint64{}, locs: map[uint64][]uint64{}}
	err := protoFields(b, func(field, wire int, _ uint64, data []byte) error {
		if wire != 2 {
			return nil
		}
		switch field {
		case 2:
			var s sample
			err := protoFields(data, func(f, wt int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, wt, v, d)
				case 2:
					var vs []uint64
					vs, err = appendVarints(nil, wt, v, d)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(f, wt int, v uint64, d []byte) error {
				switch {
				case f == 1 && wt == 0:
					id = v
				case f == 4 && wt == 2:
					return protoFields(d, func(lf, lwt int, lv uint64, _ []byte) error {
						if lf == 1 && lwt == 0 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := protoFields(data, func(f, wt int, v uint64, _ []byte) error {
				if wt == 0 && f == 1 {
					id = v
				} else if wt == 0 && f == 2 {
					name = v
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// protoFields calls fn for every field of the protobuf message b, with the
// field number, wire type, and the value (varint and fixed types) or bytes
// (length-delimited).
func protoFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch wire := key & 7; wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), int(key&7), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, which arrive
// either one per field (wire type 0) or packed (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
