package exp

import (
	"errors"
	"fmt"

	"openmxsim/internal/chaos"
	"openmxsim/internal/cluster"
	"openmxsim/internal/fabric"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
	"openmxsim/internal/units"
)

// Resilience sweeps the paper's latency/interrupt tradeoff against frame
// loss: the fig4-6 grid's strategy axis crossed with a stationary drop
// probability and a loss-burst length (chaos.Bursty per point). The rows
// show how the knee moves — coalescing strategies that win on a clean
// fabric pay retransmission latency under loss, and bursty loss (same
// average rate, clustered) is harsher than uniform because consecutive
// fragments of one message die together.
func Resilience(opts Options) *Report {
	g := sweep.Grid{
		Strategies: []nic.Strategy{
			nic.StrategyDisabled, nic.StrategyTimeout, nic.StrategyOpenMX,
		},
		// Large messages: dozens of fragments per transfer give the loss
		// chain real exposure even at low rates (a 4KiB quick run can
		// finish without a single unlucky draw, which would make every
		// row identical to the clean baseline).
		Sizes:    []int{64 << 10},
		Seeds:    []uint64{opts.Seed},
		DropProb: []float64{0, 0.005, 0.02},
		Burst:    []float64{1, 8},
		Iters:    20,
	}
	if opts.Quick {
		g.Strategies = []nic.Strategy{nic.StrategyTimeout, nic.StrategyOpenMX}
		g.DropProb = []float64{0, 0.02}
		g.Iters = 6
	}

	rep := &Report{
		ID:     "resilience",
		Title:  "Latency/interrupt knee vs loss rate and burstiness (64KiB ping-pong + robustness counters)",
		Header: []string{"strategy", "drop", "burst", "latency(us)", "intr/msg", "retx", "pullretry", "backoffs", "giveups"},
		Notes: []string{
			"drop 0 rows are the clean baseline; burst is the mean loss-episode length at equal average rate",
			"retx/backoffs/giveups sum the protocol's recovery work across both nodes for the whole measurement",
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
			fmt.Sprintf("%g", r.DropProb),
			fmt.Sprintf("%g", r.Burst),
			us(sim.Time(r.LatencyNS)),
			fmt.Sprintf("%.2f", r.IntrPerMsg),
			fmt.Sprintf("%d", r.Retransmits),
			fmt.Sprintf("%d", r.PullRetries),
			fmt.Sprintf("%d", r.Backoffs),
			fmt.Sprintf("%d", r.GiveUps),
		})
	}
	return rep
}

// ResilienceIncast runs the N-to-1 incast under Gilbert–Elliott loss on a
// sharded cluster: unlike the ping-pong harness (which pins the reference
// engine), this experiment genuinely fans out across -par engines, so it
// doubles as the chaos layer's parallel-determinism probe — its report
// must be bit-identical at any opts.Par.
func ResilienceIncast(opts Options) *Report {
	senders := 4
	measure := 30 * sim.Millisecond
	loss := []struct{ drop, burst float64 }{{0, 0}, {0.01, 1}, {0.01, 8}}
	if opts.Quick {
		measure = 8 * sim.Millisecond
		loss = []struct{ drop, burst float64 }{{0, 0}, {0.01, 8}}
	}
	strategies := []struct {
		name     string
		strategy nic.Strategy
	}{
		{"timeout", nic.StrategyTimeout},
		{"openmx", nic.StrategyOpenMX},
	}
	rep := &Report{
		ID:     "resilience-incast",
		Title:  "4-to-1 incast under bursty loss: receiver rate vs protocol recovery work (sharded)",
		Header: []string{"strategy", "drop", "burst", "rate(msg/s)", "intr/msg", "qdrops", "retx", "backoffs", "giveups"},
		Notes: []string{
			"output-queued switch, 64-frame egress buffer; the loss chain runs per source node on its own shard",
			"loss converts receiver-side interrupt pressure into sender-side retransmission work",
		},
	}
	for _, st := range strategies {
		for _, lo := range loss {
			cfg := opts.config()
			cfg.Strategy = st.strategy
			cfg.Topology = fabric.Topology{
				Kind:              fabric.TopologyOutputQueued,
				EgressQueueFrames: 64,
			}
			if lo.drop > 0 {
				cfg.Scenario = &chaos.Scenario{
					Loss: chaos.Bursty(lo.drop, lo.burst),
					Seed: opts.Seed,
				}
			}
			res := sweep.RunIncast(sweep.IncastSpec{
				Cluster: cfg,
				Senders: senders,
				Size:    128,
				Warmup:  5 * sim.Millisecond,
				Measure: measure,
			})
			perMsg := "-"
			if res.Received > 0 {
				perMsg = fmt.Sprintf("%.2f", float64(res.Interrupts)/float64(res.Received))
			}
			rep.Rows = append(rep.Rows, []string{
				st.name,
				fmt.Sprintf("%g", lo.drop),
				fmt.Sprintf("%g", lo.burst),
				units.FormatRate(res.Rate),
				perMsg,
				fmt.Sprintf("%d", res.PortDrops),
				fmt.Sprintf("%d", res.Proto.Retransmits),
				fmt.Sprintf("%d", res.Proto.Backoffs),
				fmt.Sprintf("%d", res.Proto.GiveUps),
			})
		}
	}
	return rep
}

// ResilienceFlap demonstrates the bounded-retry contract end to end: a
// medium send launched into a transient link flap recovers after the
// link returns, and the same send against a permanent outage terminates
// with ErrGiveUp within the retry budget — under the liveness watchdog,
// which must stay quiet in both cases (the engine drains; nothing
// retries forever).
func ResilienceFlap(opts Options) *Report {
	// Large message: the rendezvous handshake means the send handle only
	// completes when the peer actually received the data, so a permanent
	// outage surfaces ErrGiveUp on the handle (a medium send would
	// complete at buffered handoff and fail silently into the counters).
	const size = 64 << 10
	down := sim.Millisecond
	cases := []struct {
		name string
		upAt sim.Time // 0 = permanent outage
	}{
		{"transient-40ms", 41 * sim.Millisecond},
		{"permanent", 0},
	}
	rep := &Report{
		ID:     "resilience-flap",
		Title:  "Link flap vs the retry budget: recovery after a transient outage, bounded give-up after a permanent one",
		Header: []string{"flap", "outcome", "watchdog", "retx", "backoffs", "giveups", "t(s)"},
		Notes: []string{
			"64KiB rendezvous send launched 1ms into the outage; MaxResends bounds the exponential-backoff retry train",
			"watchdog 'quiet' means the run drained on its own — no unbounded retry loop either way",
		},
	}
	for _, tc := range cases {
		cfg := opts.config()
		// Sequential cluster construction: the shared recorder sees one run
		// per flap case, flap edges included.
		cfg.Trace = opts.Trace
		cfg.Scenario = &chaos.Scenario{
			Flaps: []chaos.LinkFlap{{Node: 1, DownAt: down, UpAt: tc.upAt}},
			Seed:  opts.Seed,
		}
		cl := cluster.New(cfg)
		eps := cl.OpenEndpoints(1)

		completed := false
		var h *omx.SendHandle
		eps[1].Irecv(0, 0, nil, size, nil)
		cl.ScheduleOn(0, 2*sim.Millisecond, func() {
			h = eps[0].Isend(cl.Addr(1, 0), 1, nil, size, func() { completed = true })
		})

		werr := cl.RunWatched(5 * sim.Second)
		outcome := "pending"
		switch {
		case h != nil && errors.Is(h.Err, omx.ErrGiveUp):
			outcome = "gave-up"
		case completed && h != nil && h.Err == nil:
			outcome = "completed"
		case h != nil && h.Err != nil:
			outcome = fmt.Sprintf("failed: %v", h.Err)
		}
		wd := "quiet"
		if werr != nil {
			wd = "FIRED"
			rep.Notes = append(rep.Notes, fmt.Sprintf("WATCHDOG %s: %v", tc.name, werr))
		}
		pc := cl.Proto()
		rep.Rows = append(rep.Rows, []string{
			tc.name, outcome, wd,
			fmt.Sprintf("%d", pc.Retransmits),
			fmt.Sprintf("%d", pc.Backoffs),
			fmt.Sprintf("%d", pc.GiveUps),
			seconds(cl.Now()),
		})
	}
	return rep
}
