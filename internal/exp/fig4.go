package exp

import (
	"fmt"

	"openmxsim/internal/host"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// Fig4 reproduces Figure 4: message rate of a stream of 128-byte Open-MX
// messages as a function of the interrupt coalescing delay (0 = disabled),
// for the three host configurations the paper compares:
//
//	single-core IRQs + sleeping disabled
//	single-core IRQs + sleeping possible
//	all-cores (round-robin) IRQs + sleeping possible (the default)
func Fig4(opts Options) *Report {
	delays := []sim.Time{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80}
	warmup, measure := 20*sim.Millisecond, 120*sim.Millisecond
	if opts.Quick {
		delays = []sim.Time{0, 15, 45, 75}
		warmup, measure = 5*sim.Millisecond, 25*sim.Millisecond
	}
	for i := range delays {
		delays[i] *= sim.Microsecond
	}

	type hostCfg struct {
		name   string
		policy host.IRQPolicy
		sleep  bool
	}
	configs := []hostCfg{
		{"single-core, no-sleep", host.IRQSingleCore, false},
		{"single-core, sleep", host.IRQSingleCore, true},
		{"all-cores, sleep (default)", host.IRQRoundRobin, true},
	}

	rep := &Report{
		ID:     "fig4",
		Title:  "Message rate of a stream of 128B Open-MX messages vs coalescing delay",
		Header: []string{"delay(us)"},
		Notes: []string{
			"paper: default config peaks ~433k msg/s at 75us; disabling coalescing cuts the rate by more than 2x",
			"paper: single-core binding and disabling sleep both raise the curve",
		},
	}
	for _, c := range configs {
		rep.Header = append(rep.Header, c.name)
	}

	for _, d := range delays {
		row := []string{fmt.Sprintf("%d", d/sim.Microsecond)}
		for _, hc := range configs {
			cfg := opts.config()
			cfg.IRQPolicy = hc.policy
			cfg.SleepDisabled = !hc.sleep
			if d == 0 {
				cfg.Strategy = nic.StrategyDisabled
			} else {
				cfg.Strategy = nic.StrategyTimeout
				cfg.CoalesceDelay = d
			}
			res := sweep.RunStream(sweep.StreamSpec{
				Cluster: cfg, Size: 128,
				Warmup: warmup, Measure: measure,
			})
			row = append(row, units.FormatRate(res.Rate))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Overhead reproduces Section IV-B2: per-packet receive-stack overhead for
// a stream of invalid 128-byte packets, with coalescing on/off and IRQs
// round-robin vs bound to one core.
func Overhead(opts Options) *Report {
	packets := 200_000
	if opts.Quick {
		packets = 20_000
	}
	gap := 5 * sim.Microsecond // ~200k packets/s blast

	type cfgRow struct {
		name     string
		strategy nic.Strategy
		policy   host.IRQPolicy
	}
	rows := []cfgRow{
		{"disabled, all-cores", nic.StrategyDisabled, host.IRQRoundRobin},
		{"disabled, single-core", nic.StrategyDisabled, host.IRQSingleCore},
		{"coalescing 75us, all-cores", nic.StrategyTimeout, host.IRQRoundRobin},
		{"coalescing 75us, single-core", nic.StrategyTimeout, host.IRQSingleCore},
	}

	rep := &Report{
		ID:     "overhead",
		Title:  "Per-packet receive overhead, invalid 128B packets dropped by the handler",
		Header: []string{"configuration", "ns/packet", "interrupts"},
		Notes: []string{
			"paper: 965 ns/packet uncoalesced, ~774 ns (-20%) coalesced; binding to one core saves ~40 ns",
		},
	}
	for _, c := range rows {
		cfg := opts.config()
		cfg.Strategy = c.strategy
		cfg.IRQPolicy = c.policy
		res := runOverhead(cfg, packets, gap)
		rep.Rows = append(rep.Rows, []string{
			c.name,
			fmt.Sprintf("%d", res.PerPacket),
			fmt.Sprintf("%d", res.Interrupts),
		})
	}
	return rep
}
