package exp

import (
	"fmt"

	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// pingPongSizes is the Fig. 5/6 x-axis: 1 B to 1 MiB in powers of four.
var pingPongSizes = []int{1, 4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

type ppStrategy struct {
	name     string
	strategy nic.Strategy
}

func pingPongReport(id, title string, opts Options, strategies []ppStrategy, notes []string) *Report {
	iters := 30
	if opts.Quick {
		iters = 6
	}
	rep := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"size", "base(us)"},
		Notes:  notes,
	}
	results := make([]map[int]sim.Time, len(strategies))
	for i, s := range strategies {
		cfg := opts.config()
		cfg.Strategy = s.strategy
		out, err := sweep.RunPingPong(cfg, pingPongSizes, iters, sweep.Background{})
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s: %v", s.name, err))
			out.Latency = map[int]sim.Time{}
		}
		results[i] = out.Latency
	}
	for _, s := range strategies[1:] {
		rep.Header = append(rep.Header, s.name+"(norm)")
	}
	for _, size := range pingPongSizes {
		base := results[0][size]
		row := []string{units.FormatBytes(size), us(base)}
		for i := range strategies[1:] {
			t := results[i+1][size]
			norm := "-"
			if base > 0 {
				norm = fmt.Sprintf("%.2f", float64(t)/float64(base))
			}
			row = append(row, norm)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Fig5 reproduces Figure 5: ping-pong transfer time with the default 75 us
// coalescing versus coalescing disabled, normalized to the former.
func Fig5(opts Options) *Report {
	return pingPongReport("fig5",
		"Ping-pong transfer time normalized to 75us interrupt coalescing",
		opts,
		[]ppStrategy{
			{"coalescing-75us", nic.StrategyTimeout},
			{"disabled", nic.StrategyDisabled},
		},
		[]string{
			"paper: small-message latency ~10us disabled vs ~75us coalesced; large messages favour coalescing",
			"values < 1 mean faster than the 75us-coalescing baseline",
		})
}

// Fig6 reproduces Figure 6: Fig. 5 plus the Open-MX coalescing firmware,
// which should track the lower envelope of both curves.
func Fig6(opts Options) *Report {
	return pingPongReport("fig6",
		"Ping-pong transfer time with Open-MX coalescing, normalized to 75us coalescing",
		opts,
		[]ppStrategy{
			{"coalescing-75us", nic.StrategyTimeout},
			{"disabled", nic.StrategyDisabled},
			{"openmx", nic.StrategyOpenMX},
			{"stream", nic.StrategyStream}, // extension: paper omits it (same as openmx here)
		},
		[]string{
			"paper: Open-MX coalescing achieves disabled-like small-message latency AND coalesced-like large-message throughput",
			"stream column is an extension; the paper notes it matches openmx for ping-pong",
		})
}
