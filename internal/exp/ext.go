package exp

import (
	"fmt"

	"openmxsim/internal/host"
	"openmxsim/internal/nas"
	"openmxsim/internal/nic"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// Adaptive explores the Section VI future-work idea: a firmware whose
// coalescing delay follows the observed packet rate. The paper's early
// tests found it "helps microbenchmarks but cannot help real applications
// as well as our firmware modifications do".
func Adaptive(opts Options) *Report {
	iters := 20
	if opts.Quick {
		iters = 5
	}
	rep := &Report{
		ID:     "adaptive",
		Title:  "Adaptive coalescing vs fixed strategies (Section VI extension)",
		Header: []string{"metric", "Default", "Disabled", "Open-MX", "Adaptive"},
		Notes: []string{
			"paper: adaptive tuning reacts only to past traffic, so it helps steady microbenchmarks but not phase-changing applications",
		},
	}
	strategies := []struct {
		name     string
		strategy nic.Strategy
	}{
		{"Default", nic.StrategyTimeout},
		{"Disabled", nic.StrategyDisabled},
		{"Open-MX", nic.StrategyOpenMX},
		{"Adaptive", nic.StrategyAdaptive},
	}

	// Microbenchmark 1: small-message ping-pong latency.
	latRow := []string{"pingpong 128B (us)"}
	for _, st := range strategies {
		cfg := opts.config()
		cfg.Strategy = st.strategy
		out, err := sweep.RunPingPong(cfg, []int{128}, iters, sweep.Background{})
		if err != nil {
			latRow = append(latRow, "err")
			continue
		}
		latRow = append(latRow, us(out.Latency[128]))
	}
	rep.Rows = append(rep.Rows, latRow)

	// Microbenchmark 2: 128B message rate.
	rateRow := []string{"rate 128B (msg/s)"}
	measure := 120 * sim.Millisecond
	if opts.Quick {
		measure = 25 * sim.Millisecond
	}
	for _, st := range strategies {
		cfg := opts.config()
		cfg.Strategy = st.strategy
		res := sweep.RunStream(sweep.StreamSpec{Cluster: cfg, Size: 128,
			Warmup: 10 * sim.Millisecond, Measure: measure})
		rateRow = append(rateRow, units.FormatRate(res.Rate))
	}
	rep.Rows = append(rep.Rows, rateRow)

	// Application: NAS IS (class W in quick mode, B otherwise).
	class := byte('B')
	if opts.Quick {
		class = 'W'
	}
	wl, err := nas.Get("is", class, 16)
	if err == nil {
		isRow := []string{fmt.Sprintf("is.%c.16 (s)", class)}
		for _, st := range strategies {
			cfg := opts.config()
			cfg.Strategy = st.strategy
			res, err := nas.Run(cfg, wl)
			if err != nil {
				isRow = append(isRow, "err")
				continue
			}
			isRow = append(isRow, seconds(res.Elapsed))
		}
		rep.Rows = append(rep.Rows, isRow)
	}
	return rep
}

// Multiqueue explores the Section VI multiqueue extension: per-channel
// receive queues with per-queue IRQ affinity remove the cache-line bounces
// of round-robin interrupt scattering.
func Multiqueue(opts Options) *Report {
	measure := 120 * sim.Millisecond
	if opts.Quick {
		measure = 25 * sim.Millisecond
	}
	rep := &Report{
		ID:     "multiqueue",
		Title:  "Multiqueue NIC with per-queue IRQ binding (Section VI extension)",
		Header: []string{"configuration", "rate 128B (msg/s)", "interrupts/s"},
		Notes: []string{
			"paper (Section VI): attaching each channel's processing to one core is cheap stateless NIC support",
		},
	}
	cases := []struct {
		name   string
		queues int
		policy host.IRQPolicy
	}{
		{"single queue, round-robin", 1, host.IRQRoundRobin},
		{"single queue, bound", 1, host.IRQSingleCore},
		{"8 queues, per-queue IRQs", 8, host.IRQPerQueue},
	}
	for _, cs := range cases {
		cfg := opts.config()
		cfg.Strategy = nic.StrategyOpenMX
		cfg.Queues = cs.queues
		cfg.IRQPolicy = cs.policy
		res := sweep.RunStream(sweep.StreamSpec{Cluster: cfg, Size: 128,
			Warmup: 10 * sim.Millisecond, Measure: measure})
		rep.Rows = append(rep.Rows, []string{
			cs.name,
			units.FormatRate(res.Rate),
			units.FormatRate(res.IntrRate),
		})
	}
	return rep
}

// Jumbo validates the Section IV-A claim that a 9000-byte MTU exhibits the
// same small-message behaviour and proportionally shifted large-message
// behaviour.
func Jumbo(opts Options) *Report {
	iters := 20
	if opts.Quick {
		iters = 5
	}
	rep := &Report{
		ID:     "jumbo",
		Title:  "MTU 1500 vs 9000: ping-pong with Open-MX coalescing (Section IV-A extension)",
		Header: []string{"size", "mtu1500(us)", "mtu9000(us)"},
		Notes: []string{
			"paper: a larger MTU shows the same behaviour for small messages and proportionally-larger messages",
		},
	}
	sizes := []int{64, 1 << 10, 32 << 10, 1 << 20}
	results := map[int]map[int]sim.Time{}
	for _, mtu := range []int{1500, 9000} {
		cfg := opts.config()
		cfg.Strategy = nic.StrategyOpenMX
		p := params.Default()
		p.Proto.MTU = mtu
		p.Proto.PullReplyPayload = mtu
		cfg.Params = p
		out, err := sweep.RunPingPong(cfg, sizes, iters, sweep.Background{})
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR mtu %d: %v", mtu, err))
			out.Latency = map[int]sim.Time{}
		}
		results[mtu] = out.Latency
	}
	for _, size := range sizes {
		rep.Rows = append(rep.Rows, []string{
			units.FormatBytes(size),
			us(results[1500][size]),
			us(results[9000][size]),
		})
	}
	return rep
}
