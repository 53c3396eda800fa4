package sweep

import (
	"encoding/json"
	"io"

	"openmxsim/internal/trace"
)

// Result is the measurement at one grid point. Fields use flat,
// JSON-friendly types so sweep outputs are trivially consumed by plotting
// scripts and the benchmark-trajectory tooling.
type Result struct {
	Index         int     `json:"index"`
	Strategy      string  `json:"strategy"`
	DelayUS       float64 `json:"delay_us"`
	SizeBytes     int     `json:"size_bytes"`
	IRQ           string  `json:"irq"`
	Queues        int     `json:"queues"`
	Seed          uint64  `json:"seed"`
	SleepDisabled bool    `json:"sleep_disabled"`
	// Nodes is the effective cluster size of the point (after raising for
	// background streams); BgStreams the background-load axis value.
	Nodes     int `json:"nodes"`
	BgStreams int `json:"bg_streams"`
	// DropProb and Burst echo the loss-scenario axes (0 = clean point).
	DropProb float64 `json:"drop_prob"`
	Burst    float64 `json:"burst"`

	// LatencyNS is the mean one-way ping-pong transfer time in virtual ns.
	LatencyNS int64 `json:"latency_ns"`
	// Interrupts counts interrupts on both NICs over the whole ping-pong;
	// IntrPerMsg divides by the number of messages exchanged.
	Interrupts uint64  `json:"interrupts"`
	IntrPerMsg float64 `json:"intr_per_msg"`
	// RateMsgPerSec and RateIntrPerSec are only measured when Grid.Rate is
	// on; the keys are always present so every point shares one schema.
	RateMsgPerSec  float64 `json:"rate_msg_per_sec"`
	RateIntrPerSec float64 `json:"rate_intr_per_sec"`
	// Proto sums the protocol counters over every node of the latency
	// measurement's cluster: how hard the reliability layer worked at
	// this point.
	trace.Proto
	// Series is the point's virtual-time metric series, present only when
	// Grid.Sample is set (JSON only; the flat CSV schema stays scalar).
	Series []trace.Sample `json:"series,omitempty"`
	// Err is set when the point failed instead of measuring.
	Err string `json:"error,omitempty"`
}

// Results is an ordered sweep outcome (grid-expansion order).
type Results []Result

// JSON renders the results as indented JSON. The encoding is fully
// deterministic: equal grids and seeds yield byte-identical output
// regardless of how many workers produced them.
func (rs Results) JSON() ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

// WriteJSON writes the JSON form followed by a newline.
func (rs Results) WriteJSON(w io.Writer) error {
	b, err := rs.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV writes the results as comma-separated values with a header
// row: one column per scalar field of the JSON form, in the same order.
func (rs Results) WriteCSV(w io.Writer) error {
	return trace.WriteCSV(w, rs)
}
