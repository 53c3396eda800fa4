package exp

import (
	"fmt"

	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/tune"
	"openmxsim/internal/units"
)

// paretoSpace is the tradeoff space both tuner experiments share: the
// fig4-6 grid (every strategy crossed with the coalescing-delay axis) with
// the stream interrupt rate as the load objective and the ping-pong
// latency as the latency objective.
func paretoSpace(opts Options) ([]nic.Strategy, []sim.Time, sweep.Grid) {
	strategies := []nic.Strategy{
		nic.StrategyDisabled, nic.StrategyTimeout,
		nic.StrategyOpenMX, nic.StrategyStream,
	}
	var delays []sim.Time
	step, hi := 6*sim.Microsecond, 96*sim.Microsecond
	if opts.Quick {
		step = 12 * sim.Microsecond
	}
	for d := sim.Time(0); d <= hi; d += step {
		delays = append(delays, d)
	}
	g := sweep.Grid{
		Strategies:  strategies,
		Delays:      delays,
		Sizes:       []int{128},
		Seeds:       []uint64{opts.Seed},
		Iters:       20,
		Rate:        true,
		RateWarmup:  5 * sim.Millisecond,
		RateMeasure: 20 * sim.Millisecond,
	}
	if opts.Quick {
		g.Iters = 6
		g.RateWarmup = 2 * sim.Millisecond
		g.RateMeasure = 8 * sim.Millisecond
	}
	return strategies, delays, g
}

// Pareto runs the exhaustive fig4-6 tradeoff grid and reports every point
// with its frontier tag: which (strategy, delay) pairs are Pareto-optimal
// over (interrupts/sec, latency), and which one is the knee. This is the
// paper's Figures 4-6 turned from three plots a human cross-reads into
// one machine-checkable answer.
func Pareto(opts Options) *Report {
	_, _, g := paretoSpace(opts)
	rep := &Report{
		ID:     "pareto",
		Title:  "Pareto frontier of the strategy x delay tradeoff grid (interrupts/sec vs latency)",
		Header: []string{"strategy", "delay(us)", "latency(us)", "intr/s", "frontier", "knee"},
		Notes: []string{
			"frontier: no other point is at least as good on both objectives and better on one",
			"knee: frontier point farthest from the chord between the frontier's endpoints",
			"paper: openmx/stream pair disabled-like latency with coalesced-like interrupt load, so they should own the frontier",
		},
	}
	results, err := sweep.Run(g, 0)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR: %v", err))
		return rep
	}
	tr := tune.Frontier(results)
	for _, p := range tr.Points {
		if p.Err != "" {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR point %d: %s", p.Index, p.Err))
			continue
		}
		frontier, knee := "", ""
		if !p.Dominated {
			frontier = "*"
		}
		if p.Knee {
			knee = "knee"
		}
		rep.Rows = append(rep.Rows, []string{
			p.Strategy,
			fmt.Sprintf("%.0f", p.DelayUS),
			fmt.Sprintf("%.1f", p.LatencyUS),
			units.FormatRate(p.Load),
			frontier,
			knee,
		})
	}
	if k, ok := tr.Knee(); ok {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"knee: %s @ %.0fus — %.1fus latency at %s intr/s",
			k.Strategy, k.DelayUS, k.LatencyUS, units.FormatRate(k.Load)))
	}
	return rep
}

// Autotune demonstrates the adaptive search against ground truth: the
// exhaustive frontier of the same space is computed first, then
// tune.Search is budgeted at 30% of the exhaustive cost and must land on
// the same knee. The report carries both answers and the evaluation
// counts so the saving is visible (and CI-checkable).
func Autotune(opts Options) *Report {
	strategies, delays, g := paretoSpace(opts)
	rep := &Report{
		ID:     "autotune",
		Title:  "Adaptive tradeoff search vs exhaustive frontier (same knee, fraction of the evaluations)",
		Header: []string{"method", "evals", "knee", "delay(us)", "latency(us)", "intr/s"},
	}
	results, err := sweep.Run(g, 0)
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR: %v", err))
		return rep
	}
	exhaustive := tune.Frontier(results)
	ek, ok := exhaustive.Knee()
	if !ok {
		rep.Notes = append(rep.Notes, "ERROR: exhaustive grid produced no valid point")
		return rep
	}

	budget := 3 * len(results) / 10
	out, err := tune.Search(tune.Spec{
		Size:        128,
		Iters:       g.Iters,
		Seed:        opts.Seed,
		Rate:        true,
		RateWarmup:  g.RateWarmup,
		RateMeasure: g.RateMeasure,
		Strategies:  strategies,
		Delays:      delays,
		MaxEvals:    budget,
	})
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR: %v", err))
		return rep
	}

	row := func(method string, evals int, p tune.Point) []string {
		return []string{
			method, fmt.Sprintf("%d", evals), p.Strategy,
			fmt.Sprintf("%.0f", p.DelayUS),
			fmt.Sprintf("%.1f", p.LatencyUS),
			units.FormatRate(p.Load),
		}
	}
	rep.Rows = append(rep.Rows,
		row("exhaustive", len(results), ek),
		row("search", out.Evals, out.Knee))
	match := out.Knee.Strategy == ek.Strategy && out.Knee.DelayUS == ek.DelayUS
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("search used %d of %d evaluations (%.0f%%, budget %d)",
			out.Evals, len(results), 100*float64(out.Evals)/float64(len(results)), budget),
		fmt.Sprintf("knee match: %v (the search must reproduce the exhaustive knee)", match),
	)
	if !match {
		rep.Notes = append(rep.Notes, "ERROR: search knee differs from exhaustive knee")
	}
	return rep
}
