package exp

import (
	"openmxsim/internal/cluster"
	"openmxsim/internal/sim"
	"openmxsim/internal/wire"
)

// nullPort absorbs frames addressed to the blaster's MAC (none arrive).
type nullPort struct{}

func (nullPort) ReceiveFrame(*wire.Frame) {}

// overheadResult is the Section IV-B2 measurement: receive-stack CPU time
// per packet for a stream of invalid packets dropped by the handler.
type overheadResult struct {
	PerPacket  sim.Time
	Interrupts uint64
	Packets    int
}

func runOverhead(cfg cluster.Config, packets int, gap sim.Time) overheadResult {
	cl := cluster.New(cfg)
	// The stack must exist so the receive handler runs; no endpoint is
	// needed because invalid packets are dropped before demultiplexing.
	blaster := wire.NodeMAC(9)
	cl.Switch.Attach(blaster, nullPort{})

	dst := cl.NICs[0].MAC()
	sent := 0
	var next func()
	next = func() {
		if sent >= packets {
			return
		}
		sent++
		h := wire.Header{Type: wire.TypeInvalid}
		f := wire.NewFrame(blaster, dst, h, nil, 128)
		cl.Switch.Send(f)
		cl.Eng.After(gap, next)
	}
	cl.Eng.After(0, next)
	cl.Run()

	st := cl.Hosts[0].Stats()
	dropped := cl.Stacks[0].Stats.InvalidDropped
	var per sim.Time
	if dropped > 0 {
		per = st.IRQBusy / sim.Time(dropped)
	}
	return overheadResult{
		PerPacket:  per,
		Interrupts: cl.NICs[0].Stats.Interrupts,
		Packets:    int(dropped),
	}
}
