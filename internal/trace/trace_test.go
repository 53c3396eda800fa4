package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// TestMergeCanonicalOrder pins the exporters' ordering contract: events
// and samples come back merged by (run, time, node, emission index), no
// matter which order the per-node handles were written in.
func TestMergeCanonicalOrder(t *testing.T) {
	rec := trace.New(trace.Config{Events: true, SampleEvery: sim.Microsecond})
	hs := rec.Start(3)
	// Write the nodes in a deliberately scrambled global order; only each
	// node's own stream is time-ordered, as the shard engines guarantee.
	hs[2].Event(5*sim.Microsecond, trace.EvIRQ, 0)
	hs[0].Event(3*sim.Microsecond, trace.EvRingDrop, 1)
	hs[1].Event(3*sim.Microsecond, trace.EvIRQ, 1)
	hs[0].Event(5*sim.Microsecond, trace.EvIRQ, 2)
	hs[0].Event(5*sim.Microsecond, trace.EvPortDrop, 1)

	evs := rec.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	type key struct {
		at   sim.Time
		node int
		name string
	}
	want := []key{
		{3 * sim.Microsecond, 0, "ring_drop"},
		{3 * sim.Microsecond, 1, "irq"},
		{5 * sim.Microsecond, 0, "irq"},
		{5 * sim.Microsecond, 0, "port_drop"}, // same (t, node): emission order
		{5 * sim.Microsecond, 2, "irq"},
	}
	for i, w := range want {
		got := key{evs[i].At, evs[i].Node, evs[i].Name}
		if got != w {
			t.Errorf("event %d = %+v, want %+v", i, got, w)
		}
	}

	hs[1].Sample(trace.Sample{At: 2 * sim.Microsecond, Interrupts: 7})
	hs[0].Sample(trace.Sample{At: 2 * sim.Microsecond, Interrupts: 3})
	ss := rec.Samples()
	if len(ss) != 2 || ss[0].Node != 0 || ss[1].Node != 1 {
		t.Fatalf("samples not merged by node at equal time: %+v", ss)
	}
	if ss[0].Run != 0 || ss[0].Interrupts != 3 {
		t.Errorf("sample stamping wrong: %+v", ss[0])
	}
}

// TestRunsAreSequential pins the multi-run layout: each Start claims the
// next run index, and exporters emit runs in order.
func TestRunsAreSequential(t *testing.T) {
	rec := trace.New(trace.Config{Events: true})
	a := rec.Start(1)
	a[0].Event(9*sim.Microsecond, trace.EvIRQ, 0)
	b := rec.Start(1)
	b[0].Event(1*sim.Microsecond, trace.EvIRQ, 0)
	if rec.Runs() != 2 {
		t.Fatalf("Runs() = %d, want 2", rec.Runs())
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Run != 0 || evs[1].Run != 1 {
		t.Fatalf("runs not emitted in claim order: %+v", evs)
	}
	if evs[0].At != 9*sim.Microsecond {
		t.Errorf("run 0's later event must precede run 1's earlier one")
	}
}

// TestNilHandleIsFree is the hot-path contract: with tracing disabled
// every emit site is a nil-receiver no-op that allocates nothing.
func TestNilHandleIsFree(t *testing.T) {
	var n *trace.Node
	allocs := testing.AllocsPerRun(200, func() {
		n.Event(sim.Microsecond, trace.EvIRQ, 1)
		n.Sample(trace.Sample{At: sim.Microsecond})
	})
	if allocs != 0 {
		t.Errorf("nil handle emitted %v allocs/op, want 0", allocs)
	}
	var rec *trace.Recorder
	if rec.Events() != nil || rec.Samples() != nil || rec.Runs() != 0 || rec.SampleEvery() != 0 {
		t.Error("nil recorder accessors must return zero values")
	}
}

// TestEventsGate pins Config.Events: a sampling-only recorder drops
// timeline events but still records samples.
func TestEventsGate(t *testing.T) {
	rec := trace.New(trace.Config{SampleEvery: sim.Microsecond})
	hs := rec.Start(1)
	hs[0].Event(sim.Microsecond, trace.EvIRQ, 0)
	hs[0].Sample(trace.Sample{At: sim.Microsecond})
	if got := len(rec.Events()); got != 0 {
		t.Errorf("events-off recorder kept %d events", got)
	}
	if got := len(rec.Samples()); got != 1 {
		t.Errorf("events-off recorder lost samples: got %d, want 1", got)
	}
}

// TestChromeTraceFormat checks the exported timeline is a well-formed
// Chrome trace-event document: one traceEvents array, per-run
// process_name metadata, named instant events with decoded IRQ causes,
// counter tracks for samples, and fixed-point microsecond timestamps.
func TestChromeTraceFormat(t *testing.T) {
	rec := trace.New(trace.Config{Events: true, SampleEvery: sim.Microsecond})
	hs := rec.Start(2)
	hs[0].Event(1500, trace.EvIRQ, 1) // 1500 ns -> ts "1.500", cause "marked"
	hs[1].Event(2*sim.Microsecond, trace.EvRingDrop, 3)
	hs[0].Sample(trace.Sample{At: 4 * sim.Microsecond, Interrupts: 2, CoalesceDelayNS: 75000})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[0]["name"] != "process_name" {
		t.Errorf("first record must be process_name metadata, got %+v", doc.TraceEvents[0])
	}
	out := buf.String()
	for _, want := range []string{
		`"ts":1.500`,          // fixed-point µs, never float-printed
		`"cause":"marked"`,    // EvIRQ Arg decoded
		`"name":"ring_drop"`,  // kind names exported
		`"coalesce_delay_us"`, // sample counter track
		`"ph":"C"`,            // counter phase present
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
}

// TestSeriesExports pins the series file formats: the CSV header
// column-for-column, and JSON emitting [] (not null) when empty.
func TestSeriesExports(t *testing.T) {
	rec := trace.New(trace.Config{SampleEvery: sim.Microsecond})
	hs := rec.Start(1)
	hs[0].Sample(trace.Sample{At: sim.Microsecond, Interrupts: 1, PacketsIn: 2})

	var csv bytes.Buffer
	if err := rec.WriteSeriesCSV(&csv); err != nil {
		t.Fatalf("WriteSeriesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	wantHeader := "run,t_ns,node,interrupts,coalesce_delay_ns,packets_in,packets_out,queue_frames,port_drops,ring_drops,retransmits,backoffs,give_ups,pull_retries,feedback_steps,feedback_clamps"
	if len(lines) != 2 || lines[0] != wantHeader {
		t.Errorf("CSV = %q, want header %q + 1 row", csv.String(), wantHeader)
	}

	var empty bytes.Buffer
	if err := trace.New(trace.Config{}).WriteSeriesJSON(&empty); err != nil {
		t.Fatalf("WriteSeriesJSON: %v", err)
	}
	if got := strings.TrimSpace(empty.String()); got != "[]" {
		t.Errorf("empty series JSON = %q, want []", got)
	}
}

// TestWriteCSV pins the encoder's column rules: JSON names in field
// order, embedded structs flattened in place, and slices, unexported
// fields and "-" fields left out.
func TestWriteCSV(t *testing.T) {
	type row struct {
		Name  string `json:"name,omitempty"`
		Ratio float64
		trace.Proto
		List  []int `json:"list"`
		Skip  int   `json:"-"`
		OK    bool  `json:"ok"`
		note  string
		Delay sim.Time `json:"t_ns"`
	}
	rows := []row{{
		Name: "a,b", Ratio: 0.25, Proto: trace.Proto{Retransmits: 3, FeedbackClamps: 1},
		List: []int{1}, Skip: 9, OK: true, note: "x", Delay: -5,
	}}
	var b bytes.Buffer
	if err := trace.WriteCSV(&b, rows); err != nil {
		t.Fatal(err)
	}
	want := "name,Ratio,retransmits,backoffs,give_ups,pull_retries,feedback_steps,feedback_clamps,ok,t_ns\n" +
		"\"a,b\",0.25,3,0,0,0,0,1,true,-5\n"
	if b.String() != want {
		t.Errorf("WriteCSV =\n%s\nwant\n%s", b.String(), want)
	}
}

// TestExportBytesIndependentOfWriteInterleaving is the unit-level half of
// the par-determinism contract: two recorders holding identical per-node
// streams produce byte-identical exports even when the global interleaving
// of writes differed (as it does across shard layouts).
func TestExportBytesIndependentOfWriteInterleaving(t *testing.T) {
	build := func(order []int) *trace.Recorder {
		rec := trace.New(trace.Config{Events: true, SampleEvery: sim.Microsecond})
		hs := rec.Start(2)
		for _, step := range order {
			switch step {
			case 0:
				hs[0].Event(sim.Microsecond, trace.EvIRQ, 0)
			case 1:
				hs[1].Event(sim.Microsecond, trace.EvIRQ, 2)
			case 2:
				hs[0].Sample(trace.Sample{At: 2 * sim.Microsecond, Interrupts: 1})
			case 3:
				hs[1].Sample(trace.Sample{At: 2 * sim.Microsecond, Interrupts: 4})
			}
		}
		return rec
	}
	// Per-node streams identical; cross-node write order reversed.
	a, b := build([]int{0, 2, 1, 3}), build([]int{1, 3, 0, 2})
	var ta, tb bytes.Buffer
	if err := a.WriteChromeTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("trace bytes depend on cross-node write interleaving")
	}
	var sa, sb bytes.Buffer
	if err := a.WriteSeriesCSV(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSeriesCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Error("series bytes depend on cross-node write interleaving")
	}
}
