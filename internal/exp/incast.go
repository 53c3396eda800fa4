package exp

import (
	"fmt"

	"openmxsim/internal/fabric"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// Incast measures the N-to-1 fan-in regime the paper's 2-node testbed
// cannot reach: N senders blast small messages at one receiver through an
// output-queued switch with a bounded egress buffer, and the receiver's
// message rate, interrupt load, and switch-port congestion are reported
// per coalescing strategy and fan-in. This is where the interrupt-load /
// latency tradeoff meets shared-fabric congestion (cf. the congestion
// characterization literature in PAPERS.md).
func Incast(opts Options) *Report {
	fanins := []int{2, 4, 8}
	measure := 40 * sim.Millisecond
	if opts.Quick {
		fanins = []int{2, 4}
		measure = 8 * sim.Millisecond
	}
	strategies := []struct {
		name     string
		strategy nic.Strategy
	}{
		{"disabled", nic.StrategyDisabled},
		{"timeout", nic.StrategyTimeout},
		{"openmx", nic.StrategyOpenMX},
		{"stream", nic.StrategyStream},
	}
	rep := &Report{
		ID:     "incast",
		Title:  "N-to-1 incast: receiver rate and interrupt load vs fan-in (shared-fabric extension)",
		Header: []string{"senders", "strategy", "rate(msg/s)", "intr/s", "intr/msg", "drops", "maxq"},
		Notes: []string{
			"output-queued switch, 64-frame egress buffer at the receiver port; drops are drop-tail losses",
			"the coalescing tradeoff sharpens with fan-in: per-packet interrupts scale with N, timeouts do not",
		},
	}
	for _, n := range fanins {
		for _, st := range strategies {
			cfg := opts.config()
			cfg.Strategy = st.strategy
			// Clusters are built strictly sequentially here, so one shared
			// recorder can observe the whole experiment run-by-run.
			cfg.Trace = opts.Trace
			cfg.Topology = fabric.Topology{
				Kind:              fabric.TopologyOutputQueued,
				EgressQueueFrames: 64,
			}
			res := sweep.RunIncast(sweep.IncastSpec{
				Cluster: cfg,
				Senders: n,
				Size:    128,
				Warmup:  5 * sim.Millisecond,
				Measure: measure,
			})
			perMsg := "-"
			if res.Received > 0 {
				perMsg = fmt.Sprintf("%.2f", float64(res.Interrupts)/float64(res.Received))
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d", n),
				st.name,
				units.FormatRate(res.Rate),
				units.FormatRate(res.IntrRate),
				perMsg,
				fmt.Sprintf("%d", res.PortDrops),
				fmt.Sprintf("%d", res.MaxQueueFrames),
			})
		}
	}
	return rep
}

// CongestedPingPong runs the Fig. 5 ping-pong while background bulk
// streams share the receiver's switch port: the latency cost of congestion
// per coalescing strategy, unloaded vs loaded.
func CongestedPingPong(opts Options) *Report {
	iters := 20
	sizes := []int{1, 128, 4 << 10, 64 << 10}
	bg := sweep.Background{Streams: 2}
	if opts.Quick {
		iters = 5
		sizes = []int{128, 4 << 10}
	}
	strategies := []struct {
		name     string
		strategy nic.Strategy
	}{
		{"timeout", nic.StrategyTimeout},
		{"openmx", nic.StrategyOpenMX},
	}
	rep := &Report{
		ID:     "congested-pingpong",
		Title:  "Ping-pong under background bulk streams on the receiver port (shared-fabric extension)",
		Header: []string{"size"},
		Notes: []string{
			"loaded columns: 2 bulk senders (64KiB chains) on extra nodes share node 1's egress port and receive path",
			"openmx keeps its small-message advantage under load: marked packets still interrupt immediately",
		},
	}
	for _, st := range strategies {
		rep.Header = append(rep.Header, st.name+"(us)", st.name+"+bg(us)", "x")
	}

	type col struct{ base, loaded map[int]sim.Time }
	cols := make([]col, len(strategies))
	for i, st := range strategies {
		cfg := opts.config()
		cfg.Strategy = st.strategy
		base, err := sweep.RunPingPong(cfg, sizes, iters, sweep.Background{})
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s base: %v", st.name, err))
			base.Latency = map[int]sim.Time{}
		}
		loaded, err := sweep.RunPingPong(cfg, sizes, iters, bg)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s loaded: %v", st.name, err))
			loaded.Latency = map[int]sim.Time{}
		}
		cols[i] = col{base: base.Latency, loaded: loaded.Latency}
	}
	for _, size := range sizes {
		row := []string{units.FormatBytes(size)}
		for _, c := range cols {
			b, l := c.base[size], c.loaded[size]
			slow := "-"
			if b > 0 {
				slow = fmt.Sprintf("%.2f", float64(l)/float64(b))
			}
			row = append(row, us(b), us(l), slow)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
