package exp

import (
	"fmt"

	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// Sweep reproduces the Fig. 4/5 tradeoff grid in one parallel run: every
// coalescing strategy crossed with the delay and message-size axes, each
// point measured on its own cluster by the worker-pool executor in
// internal/sweep. The rows expose both sides of the paper's tradeoff —
// latency and interrupts per message — at every point.
func Sweep(opts Options) *Report {
	g := sweep.Grid{
		Strategies: []nic.Strategy{
			nic.StrategyDisabled, nic.StrategyTimeout,
			nic.StrategyOpenMX, nic.StrategyStream,
		},
		Delays: []sim.Time{25 * sim.Microsecond, 75 * sim.Microsecond},
		Sizes:  []int{1, 128, 4 << 10, 64 << 10},
		Seeds:  []uint64{opts.Seed},
		Iters:  30,
	}
	if opts.Quick {
		g.Strategies = []nic.Strategy{
			nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX,
		}
		g.Delays = []sim.Time{75 * sim.Microsecond}
		g.Sizes = []int{1, 4 << 10}
		g.Iters = 6
	}

	rep := &Report{
		ID:     "sweep",
		Title:  "Latency/interrupt tradeoff grid (strategy x delay x size), run in parallel",
		Header: []string{"strategy", "delay(us)", "size", "latency(us)", "intr/msg"},
		Notes: []string{
			fmt.Sprintf("%d points, one worker per core; results are ordered by grid position, not completion", g.Size()),
			"paper: openmx/stream should pair disabled-like latency with coalesced-like interrupt counts",
		},
	}
	results, err := sweep.Run(g, 0)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR: %v", err))
		return rep
	}
	for _, r := range results {
		if r.Err != "" {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR point %d: %s", r.Index, r.Err))
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			r.Strategy,
			fmt.Sprintf("%.0f", r.DelayUS),
			units.FormatBytes(r.SizeBytes),
			us(sim.Time(r.LatencyNS)),
			fmt.Sprintf("%.2f", r.IntrPerMsg),
		})
	}
	return rep
}
