package exp

import (
	"fmt"
	"sort"
)

// Runner is an experiment entry point.
type Runner func(Options) *Report

// registry maps experiment ids to runners, in the paper's order.
var registry = []struct {
	id     string
	desc   string
	runner Runner
}{
	{"fig4", "message rate vs coalescing delay, 3 host configs", Fig4},
	{"overhead", "per-packet receive overhead (Section IV-B2)", Overhead},
	{"fig5", "ping-pong: coalescing vs disabled", Fig5},
	{"fig6", "ping-pong with Open-MX coalescing", Fig6},
	{"table1", "message rate by size and strategy", Table1},
	{"table2", "234kiB transfer anatomy", Table2},
	{"table2-ablation", "per-marker transfer time deltas", Table2Ablation},
	{"table3", "mis-ordering impact on medium messages", Table3},
	{"table4", "NAS execution times x strategy", Table4},
	{"table5", "NAS IS interrupt counts", Table5},
	{"adaptive", "adaptive coalescing extension (Section VI)", Adaptive},
	{"multiqueue", "multiqueue extension (Section VI)", Multiqueue},
	{"jumbo", "MTU 9000 extension (Section IV-A)", Jumbo},
	{"sweep", "parallel tradeoff grid: strategy x delay x size (Figs. 4-6 in one run)", Sweep},
	{"incast", "N senders -> 1 receiver: rate and interrupts vs fan-in (shared-fabric extension)", Incast},
	{"congested-pingpong", "Fig. 5 ping-pong with background bulk streams on the receiver port", CongestedPingPong},
	{"pareto", "Pareto frontier of the fig4-6 tradeoff grid: dominated-point tagging + knee selection", Pareto},
	{"resilience", "latency/interrupt knee vs loss rate and burstiness (robustness counters per point)", Resilience},
	{"resilience-incast", "incast under bursty loss on a sharded cluster: rate vs protocol recovery work", ResilienceIncast},
	{"resilience-flap", "link flap vs the retry budget: transient recovery, bounded give-up, quiet watchdog", ResilienceFlap},
	{"autotune", "adaptive tradeoff search vs exhaustive frontier: same knee, fraction of the evaluations", Autotune},
}

// IDs lists experiment identifiers in run order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Describe returns the one-line description for an experiment id.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.desc
		}
	}
	return ""
}

// Get returns the runner for an experiment id.
func Get(id string) (Runner, error) {
	for _, e := range registry {
		if e.id == id {
			return e.runner, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, known)
}
