// Command incast walks through the N-node shared-fabric extension: an
// output-queued switch with bounded drop-tail egress queues, N senders
// converging on one receiver, and the interrupt-coalescing tradeoff under
// congestion.
//
// The paper's testbed is two nodes on a back-to-back link, so its
// interrupt-load / latency tradeoff is measured without contention. This
// example scales the fan-in and shows (a) the receiver's interrupt load
// per strategy as convergence grows and (b) what background bulk traffic
// does to a latency-sensitive ping-pong sharing the congested port.
package main

import (
	"fmt"
	"log"

	"openmxsim"
)

func main() {
	fmt.Println("part 1: N-to-1 incast through a bounded output-queued switch (128B messages)")
	fmt.Printf("%-8s %-10s %14s %14s %10s %8s\n",
		"senders", "strategy", "rate(msg/s)", "intr/s", "drops", "maxq")

	for _, senders := range []int{2, 4, 8} {
		for _, st := range []openmxsim.Strategy{
			openmxsim.StrategyDisabled, openmxsim.StrategyTimeout, openmxsim.StrategyOpenMX,
		} {
			cfg := openmxsim.PaperPlatform()
			cfg.Strategy = st
			// The zero-value Topology leaves each egress queue unbounded,
			// as on the paper's two-host link; the output-queued topology
			// bounds it with a FIFO drop-tail buffer.
			cfg.Topology = openmxsim.Topology{
				Kind:              openmxsim.TopologyOutputQueued,
				EgressQueueFrames: 64,
			}
			res := openmxsim.Incast(openmxsim.IncastSpec{
				Cluster: cfg,
				Senders: senders,
				Size:    128,
				Warmup:  5 * openmxsim.Millisecond,
				Measure: 20 * openmxsim.Millisecond,
			})
			fmt.Printf("%-8d %-10v %14.0f %14.0f %10d %8d\n",
				senders, st, res.Rate, res.IntrRate, res.PortDrops, res.MaxQueueFrames)
		}
	}

	fmt.Println("\npart 2: 128B ping-pong while 2 bulk streams congest the receiver's port")
	fmt.Printf("%-10s %14s %14s %10s\n", "strategy", "quiet(us)", "loaded(us)", "slowdown")
	for _, st := range []openmxsim.Strategy{openmxsim.StrategyTimeout, openmxsim.StrategyOpenMX} {
		cfg := openmxsim.PaperPlatform()
		cfg.Strategy = st
		quiet, err := openmxsim.PingPong(cfg, []int{128}, 20)
		if err != nil {
			log.Fatal(err)
		}
		loaded, err := openmxsim.PingPongLoaded(cfg, []int{128}, 20, openmxsim.Background{Streams: 2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10v %14.1f %14.1f %9.2fx\n", st,
			float64(quiet[128])/1000, float64(loaded[128])/1000,
			float64(loaded[128])/float64(quiet[128]))
	}
	fmt.Println("\nthe marker-driven firmware keeps its latency advantage under congestion,")
	fmt.Println("while per-packet interrupts (disabled) scale their host load with the fan-in.")
}
