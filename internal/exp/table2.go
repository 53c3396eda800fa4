package exp

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
)

// largeAnatomy measures the mean transfer time of one size-234KiB message
// (send post to receive completion on the target, as the paper measures:
// the Notify mark "does not appear critical" there) and the interrupts
// raised per transfer across both NICs.
func largeAnatomy(cfg cluster.Config, iters int) (mean sim.Time, irqPerMsg float64, err error) {
	const size = 234 << 10
	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpoints(1))
	c := w.CommWorld()
	var total sim.Time
	var irqStart uint64
	var t0 sim.Time
	_, err = w.Run(func(r *mpi.Rank) {
		for k := 0; k < iters+2; k++ {
			measuring := k >= 2
			switch r.ID {
			case 0:
				if measuring && k == 2 {
					irqStart = cl.Interrupts()
				}
				t0 = r.Now()
				r.Send(c, 1, 7, nil, size)
				// Per-iteration handshake isolates transfers.
				r.Recv(c, 1, 8, nil, 0)
				r.Compute(300 * sim.Microsecond)
			case 1:
				r.Recv(c, 0, 7, nil, size)
				if measuring {
					total += r.Now() - t0
				}
				r.Send(c, 0, 8, nil, 0)
				r.Compute(300 * sim.Microsecond)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	irqs := cl.Interrupts() - irqStart
	return total / sim.Time(iters), float64(irqs) / float64(iters), nil
}

// Table2 reproduces Table II: transfer time and interrupt count for a
// 234 KiB message under disabled / timeout / Open-MX coalescing.
func Table2(opts Options) *Report {
	iters := 40
	if opts.Quick {
		iters = 8
	}
	strategies := []struct {
		name     string
		strategy nic.Strategy
	}{
		{"Disabled", nic.StrategyDisabled},
		{"Timeout 75us", nic.StrategyTimeout},
		{"Open-MX", nic.StrategyOpenMX},
	}
	rep := &Report{
		ID:     "table2",
		Title:  "234kiB transfer: time and interrupts (both sides) per message",
		Header: []string{"strategy", "transfer(us)", "interrupts/msg"},
		Notes: []string{
			"paper: Disabled 705us / ~92.4; Timeout-75us 762us / ~14.4; Open-MX 708us / ~13.7",
			"a 234kiB pull = 1 rendezvous + 5 requests + 160 replies + 1 notify (+acks)",
		},
	}
	for _, st := range strategies {
		cfg := opts.config()
		cfg.Strategy = st.strategy
		mean, irq, err := largeAnatomy(cfg, iters)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s: %v", st.name, err))
			continue
		}
		rep.Rows = append(rep.Rows, []string{st.name, us(mean), fmt.Sprintf("%.1f", irq)})
	}
	return rep
}

// Table2Ablation reproduces the Section IV-C3 marker study: the transfer
// time delta when each latency-sensitive marker is individually removed
// from the Open-MX coalescing firmware.
func Table2Ablation(opts Options) *Report {
	iters := 40
	if opts.Quick {
		iters = 8
	}
	base := opts.config()
	base.Strategy = nic.StrategyOpenMX
	full, _, err := largeAnatomy(base, iters)

	rep := &Report{
		ID:     "table2-ablation",
		Title:  "234kiB transfer time when individual markers are removed (Open-MX coalescing)",
		Header: []string{"marker removed", "transfer(us)", "delta(us)"},
		Notes: []string{
			"paper: removing the rendezvous mark costs ~20us, pull-request ~5us, last-pull-reply ~2us, notify ~0us",
		},
	}
	if err != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR baseline: %v", err))
		return rep
	}
	rep.Rows = append(rep.Rows, []string{"(none: full marking)", us(full), "0.0"})

	cases := []struct {
		name string
		mod  func(*omx.MarkPolicy)
	}{
		{"rendezvous", func(m *omx.MarkPolicy) { m.Rendezvous = false }},
		{"pull-request", func(m *omx.MarkPolicy) { m.PullRequest = false }},
		{"last-pull-reply", func(m *omx.MarkPolicy) { m.PullLastReply = false }},
		{"notify", func(m *omx.MarkPolicy) { m.Notify = false }},
	}
	for _, cse := range cases {
		cfg := base
		mark := omx.DefaultMarkPolicy()
		cse.mod(&mark)
		cfg.Mark = &mark
		mean, _, err := largeAnatomy(cfg, iters)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s: %v", cse.name, err))
			continue
		}
		rep.Rows = append(rep.Rows, []string{
			cse.name, us(mean), fmt.Sprintf("%+.1f", float64(mean-full)/1000),
		})
	}
	return rep
}
