// Package exp contains one runner per table and figure of the paper's
// evaluation (Section IV), plus the Section VI extensions. Each runner
// builds fresh clusters, drives the workload, and formats the same rows or
// series the paper reports.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"openmxsim/internal/cluster"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// Options control experiment scale.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed uint64
	// Quick shrinks durations/iterations for tests and CI (the shapes
	// survive, the precision does not).
	Quick bool
	// Par shards the clusters the experiment builds itself across this
	// many engines (cluster.Config.Parallelism). Points built by a sweep
	// (pareto, autotune, resilience, sweep) run serially, as sweep.Run
	// always does. Reports are bit-identical at any value; only
	// wall-clock time changes. Zero means 1 (serial).
	Par int
	// Trace, when non-nil, records event timelines and sampled metric
	// series from the experiments that support telemetry (incast,
	// resilience-flap). Reports stay bit-identical with it attached.
	Trace *trace.Recorder
}

// config returns the paper's platform at the run's seed and parallelism,
// the starting point of every cluster an experiment builds.
func (o Options) config() cluster.Config {
	cfg := cluster.Paper()
	cfg.Seed = o.Seed
	cfg.Parallelism = o.Par
	return cfg
}

// Report is a formatted experiment result. It renders three ways: an
// aligned text table (String), comma-separated values (CSV), and indented
// JSON (JSON/WriteJSON) for machine consumers such as benchmark-trajectory
// tooling.
type Report struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Header and Rows form the table; Notes carries commentary
	// (paper-reference values, definitions).
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the report as comma-separated values.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the report as indented JSON. The encoding is deterministic:
// equal seeds produce byte-identical output. Nil Header/Rows are encoded
// as empty arrays, never null, so consumers see one schema on every path
// (an errored report still has its rows key).
func (r *Report) JSON() ([]byte, error) {
	c := *r
	if c.Header == nil {
		c.Header = []string{}
	}
	if c.Rows == nil {
		c.Rows = [][]string{}
	}
	return json.MarshalIndent(&c, "", "  ")
}

// WriteJSON writes the JSON form followed by a newline.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func us(t sim.Time) string {
	return fmt.Sprintf("%.1f", float64(t)/1000)
}

func seconds(t sim.Time) string {
	return fmt.Sprintf("%.2f", float64(t)/1e9)
}
