// Command omxbench regenerates the paper's tables and figures.
//
// Usage:
//
//	omxbench -run table1            # one experiment
//	omxbench -run fig4,fig5,table4  # several
//	omxbench -run all               # everything (minutes at full scale)
//	omxbench -quick                 # reduced durations (for CI)
//	omxbench -list                  # available experiments
//	omxbench -csv                   # CSV instead of aligned tables
//	omxbench -json                  # JSON reports
//
// The output of `omxbench -quick -json -run all -seed N` for N = 1 and 7 is
// committed as internal/exp/testdata/reports-seedN.json, the model's
// fingerprint; tests and CI require it byte for byte.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"openmxsim/internal/cliflag"
	"openmxsim/internal/exp"
	"openmxsim/internal/trace"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	quick := flag.Bool("quick", false, "reduced durations/iterations")
	seed := flag.Uint64("seed", 1, "simulation seed (equal seeds reproduce bit-identical results)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of aligned tables")
	list := flag.Bool("list", false, "list experiments and exit")
	par := cliflag.Par()
	traceDir := flag.String("trace-dir", "", "write per-experiment telemetry here: <id>.trace.json timelines and (with -sample) <id>.series.csv")
	sampleSpec := flag.String("sample", "", "virtual-time metric sampling interval for -trace-dir series, e.g. 200us ('' = events only)")
	flag.Parse()

	if *list {
		for _, id := range exp.IDs() {
			fmt.Printf("%-16s %s\n", id, exp.Describe(id))
		}
		return
	}

	ids := exp.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}
	opts := exp.Options{Seed: *seed, Quick: *quick, Par: *par}

	// In JSON mode the reports accumulate into one array so stdout is a
	// single valid document even with -run all (and `[]`, not `null`, when
	// nothing ran).
	sampleEvery, err := cliflag.SampleInterval(*sampleSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	reports := []*exp.Report{}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := exp.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// One fresh recorder per experiment keeps run indices local to the
		// experiment's own clusters; only experiments that opted into
		// telemetry attach it, so the files appear only when non-empty.
		opts.Trace = nil
		if *traceDir != "" {
			opts.Trace = trace.New(trace.Config{SampleEvery: sampleEvery, Events: true})
		}
		start := time.Now()
		rep := runner(opts)
		if rec := opts.Trace; rec != nil && rec.Runs() > 0 {
			if err := writeTelemetry(*traceDir, id, rec, sampleEvery > 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		switch {
		case *jsonOut:
			reports = append(reports, rep)
		case *csv:
			fmt.Print(rep.CSV())
		default:
			fmt.Println(rep)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", id, time.Since(start).Seconds())
	}
	if *jsonOut {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", b)
	}
}

// writeTelemetry writes one experiment's recorder to dir: the Chrome
// trace-event timeline always, the sampled series only when sampling was on.
func writeTelemetry(dir, id string, rec *trace.Recorder, sampled bool) error {
	write := func(path string, fn func(io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(filepath.Join(dir, id+".trace.json"), rec.WriteChromeTrace); err != nil {
		return err
	}
	if sampled {
		return write(filepath.Join(dir, id+".series.csv"), rec.WriteSeriesCSV)
	}
	return nil
}
