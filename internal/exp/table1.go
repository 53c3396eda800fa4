package exp

import (
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// table1Strategies are the four columns of Table I.
var table1Strategies = []struct {
	name     string
	strategy nic.Strategy
}{
	{"Default", nic.StrategyTimeout},
	{"Disabled", nic.StrategyDisabled},
	{"Open-MX", nic.StrategyOpenMX},
	{"Stream", nic.StrategyStream},
}

// Table1 reproduces Table I: message rate on the receiver side for 0 B,
// 32 KiB and 1 MiB messages under each coalescing strategy.
func Table1(opts Options) *Report {
	type sizeSpec struct {
		label   string
		size    int
		warmup  sim.Time
		measure sim.Time
	}
	sizes := []sizeSpec{
		{"0B", 0, 20 * sim.Millisecond, 150 * sim.Millisecond},
		{"32kiB", 32 << 10, 20 * sim.Millisecond, 250 * sim.Millisecond},
		{"1MiB", 1 << 20, 50 * sim.Millisecond, 1000 * sim.Millisecond},
	}
	if opts.Quick {
		for i := range sizes {
			sizes[i].warmup /= 4
			sizes[i].measure /= 5
		}
	}

	rep := &Report{
		ID:     "table1",
		Title:  "Message rate (msg/s, receiver side) by size and coalescing strategy",
		Header: []string{"size", "Default", "Disabled", "Open-MX", "Stream"},
		Notes: []string{
			"paper:   0B: 490k / 252k / 423k / 435k",
			"paper: 32kiB: 14507 / 6476 / 14533 / 14691",
			"paper:  1MiB: 452 / 334 / 451 / 447",
		},
	}

	for _, ss := range sizes {
		row := []string{ss.label}
		for _, st := range table1Strategies {
			cfg := opts.config()
			cfg.Strategy = st.strategy
			res := sweep.RunStream(sweep.StreamSpec{
				Cluster: cfg, Size: ss.size,
				Warmup: ss.warmup, Measure: ss.measure,
			})
			row = append(row, units.FormatRate(res.Rate))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
