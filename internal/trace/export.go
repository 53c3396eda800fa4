package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"openmxsim/internal/sim"
)

// WriteSeriesJSON writes the merged metric series as one JSON array. The
// encoding is fully deterministic: equal runs yield byte-identical output
// at any cluster parallelism.
func (r *Recorder) WriteSeriesJSON(w io.Writer) error {
	samples := r.Samples()
	if samples == nil {
		samples = []Sample{}
	}
	b, err := json.MarshalIndent(samples, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteSeriesCSV writes the merged metric series as CSV with a header row.
func (r *Recorder) WriteSeriesCSV(w io.Writer) error {
	return WriteCSV(w, r.Samples())
}

// WriteCSV writes rows as CSV with a header row. The columns are the
// row type's JSON form without its slices: every exported scalar field
// under its JSON name, in field order, with embedded structs flattened in
// place. Slices and other non-scalar fields, unexported fields and fields
// tagged "-" are skipped. Floats print in strconv's shortest 'g' form.
func WriteCSV[T any](w io.Writer, rows []T) error {
	var cols [][]int // each column's field index path
	var header []string
	for _, f := range reflect.VisibleFields(reflect.TypeFor[T]()) {
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if _, ok := cell(reflect.Zero(f.Type)); !ok || !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		cols = append(cols, f.Index)
		header = append(header, name)
	}

	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for i := range rows {
		row := reflect.ValueOf(&rows[i]).Elem()
		for j, at := range cols {
			rec[j], _ = cell(row.FieldByIndex(at))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cell formats a scalar field; ok is false for a field of any other kind,
// which gets no column.
func cell(v reflect.Value) (s string, ok bool) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.FormatBool(v.Bool()), true
	case reflect.String:
		return v.String(), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.FormatUint(v.Uint(), 10), true
	case reflect.Float32, reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits()), true
	}
	return "", false
}

// WriteChromeTrace writes the recorded timeline in the Chrome trace-event
// JSON format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// discrete events become instant events ("ph":"i") and each metric sample
// becomes counter tracks ("ph":"C") for the coalescing delay, the egress
// queue depth, and the cumulative interrupt count. Runs map to pids,
// nodes to tids, and timestamps are virtual microseconds formatted with
// fixed precision, so the bytes are deterministic at any parallelism.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("{\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			ew.printf("\n")
			first = false
		} else {
			ew.printf(",\n")
		}
	}
	runs := 0
	if r != nil {
		runs = len(r.runs)
	}
	for run := 0; run < runs; run++ {
		sep()
		ew.printf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"run %d\"}}", run, run)
		for _, rec := range mergeTimeline(r.runs[run].nodes) {
			if rec.ev != nil {
				e := rec.ev
				sep()
				ew.printf("{\"name\":%q,\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{%s}}",
					e.Name, tsUS(e.At), e.Run, e.Node, eventArgs(*e))
				continue
			}
			s := rec.sm
			sep()
			ew.printf("{\"name\":\"coalesce_delay_us\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"value\":%s}}",
				tsUS(s.At), s.Run, s.Node, tsUS(s.CoalesceDelayNS))
			sep()
			ew.printf("{\"name\":\"queue_frames\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"value\":%d}}",
				tsUS(s.At), s.Run, s.Node, s.QueueFrames)
			sep()
			ew.printf("{\"name\":\"interrupts\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,\"tid\":%d,\"args\":{\"value\":%d}}",
				tsUS(s.At), s.Run, s.Node, s.Interrupts)
		}
	}
	ew.printf("\n]}\n")
	return ew.err
}

// eventArgs renders an event's argument object.
func eventArgs(e Event) string {
	if e.Kind == EvIRQ && e.Arg >= 0 && int(e.Arg) < len(irqCauseNames) {
		return fmt.Sprintf("\"cause\":%q", irqCauseNames[e.Arg])
	}
	return fmt.Sprintf("\"arg\":%d", e.Arg)
}

// tsUS formats a nanosecond virtual timestamp (or duration) as fixed
// 3-decimal microseconds — never via float printing, whose shortest-form
// rounding would be a determinism hazard hiding in an exporter.
func tsUS[T ~int64](ns T) string {
	return fmt.Sprintf("%d.%03d", int64(ns)/1000, int64(ns)%1000)
}

// timelineRec is one merged element: exactly one of ev/sm is set.
type timelineRec struct {
	ev *Event
	sm *Sample
}

// mergeTimeline interleaves one run's events and samples into the
// canonical (time, node, seq) order. The per-node sequence counter is
// shared between events and samples, so the interleave is total. Node
// order breaks timestamp ties: the scan visits nodes in ascending order
// and only a strictly earlier timestamp displaces the current best.
func mergeTimeline(nodes []*Node) []timelineRec {
	type cursor struct{ ei, si int }
	cur := make([]cursor, len(nodes))
	total := 0
	for _, n := range nodes {
		total += len(n.events) + len(n.samples)
	}
	out := make([]timelineRec, 0, total)
	// head returns node ni's next record timestamp and kind, or ok=false
	// when the node is drained. Within a node the shared seq counter
	// decides event-vs-sample order.
	head := func(ni int) (at sim.Time, isEv bool, ok bool) {
		n, c := nodes[ni], cur[ni]
		hasE, hasS := c.ei < len(n.events), c.si < len(n.samples)
		switch {
		case hasE && (!hasS || n.events[c.ei].seq < n.samples[c.si].seq):
			return n.events[c.ei].At, true, true
		case hasS:
			return n.samples[c.si].At, false, true
		}
		return 0, false, false
	}
	for len(out) < total {
		best := -1
		var bestAt sim.Time
		bestEv := false
		for ni := range nodes {
			at, isEv, ok := head(ni)
			if !ok {
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt, bestEv = ni, at, isEv
			}
		}
		n := nodes[best]
		if bestEv {
			out = append(out, timelineRec{ev: &n.events[cur[best].ei]})
			cur[best].ei++
		} else {
			out = append(out, timelineRec{sm: &n.samples[cur[best].si]})
			cur[best].si++
		}
	}
	return out
}

// errWriter accumulates the first write error of a formatted dump.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}
