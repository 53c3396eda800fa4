package exp

import (
	"fmt"

	"openmxsim/internal/cluster"
	"openmxsim/internal/mpi"
	"openmxsim/internal/nic"
	"openmxsim/internal/omx"
	"openmxsim/internal/sim"
)

// mediumMisorder measures 32 KiB medium transfers (23 fragments) while the
// latency-sensitive mark sits `shift` fragments before the last — the
// paper's emulation of packet mis-ordering. Transfer time is send-post to
// receive-completion; "success" counts transfers that stayed within 20 us
// of the in-order mean (the deferral/absorption race was won).
type misorderResult struct {
	Mean    sim.Time
	Success float64 // fraction vs baseline, only meaningful for shift > 0
}

func mediumMisorder(cfg cluster.Config, shift, iters int, baseline sim.Time) (misorderResult, error) {
	const size = 32 << 10
	mark := omx.DefaultMarkPolicy()
	mark.MediumMarkShift = shift
	cfg.Mark = &mark

	cl := cluster.New(cfg)
	w := mpi.NewWorld(cl, cl.OpenEndpoints(1))
	c := w.CommWorld()

	var times []sim.Time
	var t0 sim.Time
	_, err := w.Run(func(r *mpi.Rank) {
		for k := 0; k < iters+2; k++ {
			switch r.ID {
			case 0:
				t0 = r.Now()
				r.Send(c, 1, 5, nil, size) // completes at last-fragment transmit
				// Wait for the receiver's per-iteration handshake so the
				// next transfer cannot flush this one's stragglers.
				r.Recv(c, 1, 6, nil, 0)
				r.Compute(150 * sim.Microsecond)
			case 1:
				r.Recv(c, 0, 5, nil, size)
				if k >= 2 {
					times = append(times, r.Now()-t0)
				}
				r.Send(c, 0, 6, nil, 0)
				r.Compute(150 * sim.Microsecond)
			}
		}
	})
	if err != nil {
		return misorderResult{}, err
	}
	var total sim.Time
	success := 0
	for _, t := range times {
		total += t
		if baseline > 0 && t <= baseline+20*sim.Microsecond {
			success++
		}
	}
	return misorderResult{
		Mean:    total / sim.Time(len(times)),
		Success: float64(success) / float64(len(times)),
	}, nil
}

// Table3 reproduces Table III: the impact of mark displacement
// (mis-ordering degrees 0, 1, 3) on 32 KiB medium transfers under Open-MX
// and Stream coalescing, plus the Stream deferral success rate.
func Table3(opts Options) *Report {
	iters := 150
	if opts.Quick {
		iters = 25
	}
	rep := &Report{
		ID:     "table3",
		Title:  "32kiB medium transfer vs mis-ordering degree (mark moved off the last fragment)",
		Header: []string{"strategy", "in-order(us)", "degree1(us)", "degree3(us)", "succ@1", "succ@3"},
		Notes: []string{
			"paper: Open-MX 156/177/177us; Stream 156/171/174us; Stream success 30% @1, 15% @3",
			"success = transfer within 20us of the in-order mean (trailing fragments were absorbed)",
		},
	}
	for _, st := range []struct {
		name     string
		strategy nic.Strategy
	}{
		{"Open-MX", nic.StrategyOpenMX},
		{"Stream", nic.StrategyStream},
	} {
		cfg := opts.config()
		cfg.Strategy = st.strategy
		base, err := mediumMisorder(cfg, 0, iters, 0)
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s: %v", st.name, err))
			continue
		}
		row := []string{st.name, us(base.Mean)}
		var succ []string
		for _, shift := range []int{1, 3} {
			res, err := mediumMisorder(cfg, shift, iters, base.Mean)
			if err != nil {
				rep.Notes = append(rep.Notes, fmt.Sprintf("ERROR %s shift %d: %v", st.name, shift, err))
				row = append(row, "-")
				succ = append(succ, "-")
				continue
			}
			row = append(row, us(res.Mean))
			succ = append(succ, fmt.Sprintf("%.0f%%", res.Success*100))
		}
		row = append(row, succ...)
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}
