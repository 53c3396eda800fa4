// Package host models the compute node: processor cores with preemptive
// interrupt scheduling, C1E idle sleep, and the IRQ-to-core routing policy
// of the platform chipset (round-robin scattering by default, optionally
// bound to a single core, or per-queue for the multiqueue extension).
package host

import (
	"fmt"

	"openmxsim/internal/params"
	"openmxsim/internal/sim"
)

// IRQPolicy selects how hardware interrupts are routed to cores.
type IRQPolicy int

const (
	// IRQRoundRobin scatters interrupts across all cores, the default
	// behaviour of the paper's platform ("interrupts are usually scattered
	// across all processor cores by the hardware chipset").
	IRQRoundRobin IRQPolicy = iota
	// IRQSingleCore binds all interrupts to core 0 (the paper's
	// "interrupts on single core" configurations).
	IRQSingleCore
	// IRQPerQueue routes each NIC queue to a fixed core (multiqueue
	// extension, Section VI).
	IRQPerQueue
)

func (p IRQPolicy) String() string {
	switch p {
	case IRQRoundRobin:
		return "round-robin"
	case IRQSingleCore:
		return "single-core"
	case IRQPerQueue:
		return "per-queue"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseIRQPolicy converts a policy name into an IRQPolicy. It accepts the
// canonical String forms ("round-robin", "single-core", "per-queue") and
// the short CLI spellings ("all", "single", "perqueue").
func ParseIRQPolicy(name string) (IRQPolicy, error) {
	switch name {
	case "round-robin", "all":
		return IRQRoundRobin, nil
	case "single-core", "single":
		return IRQSingleCore, nil
	case "per-queue", "perqueue":
		return IRQPerQueue, nil
	}
	return 0, fmt.Errorf("host: unknown IRQ policy %q", name)
}

// Host is one node: a set of cores sharing a NIC.
type Host struct {
	ID    int
	eng   *sim.Engine
	P     params.Host
	Cores []*Core

	policy IRQPolicy
	rrNext int
}

// New creates a host with the configured number of cores.
func New(eng *sim.Engine, id int, p params.Host) *Host {
	h := &Host{ID: id, eng: eng, P: p}
	h.Cores = make([]*Core, p.Cores)
	for i := range h.Cores {
		h.Cores[i] = newCore(h, i)
		// Idle cores start their C1E countdown immediately.
		h.Cores[i].maybeIdle(eng.Now())
	}
	return h
}

// Engine returns the simulation engine driving this host.
func (h *Host) Engine() *sim.Engine { return h.eng }

// SetIRQPolicy configures interrupt routing.
func (h *Host) SetIRQPolicy(p IRQPolicy) { h.policy = p }

// IRQPolicy returns the active routing policy.
func (h *Host) IRQPolicy() IRQPolicy { return h.policy }

// IRQTarget picks the core that will service the next interrupt from the
// given NIC queue.
func (h *Host) IRQTarget(queue int) *Core {
	switch h.policy {
	case IRQSingleCore:
		return h.Cores[0]
	case IRQPerQueue:
		return h.Cores[queue%len(h.Cores)]
	default:
		c := h.Cores[h.rrNext]
		h.rrNext = (h.rrNext + 1) % len(h.Cores)
		return c
	}
}

// Stats returns the aggregated core statistics.
func (h *Host) Stats() CoreStats {
	var s CoreStats
	for _, c := range h.Cores {
		s.Interrupts += c.Stats.Interrupts
		s.Wakeups += c.Stats.Wakeups
		s.IRQBusy += c.Stats.IRQBusy
		s.UserBusy += c.Stats.UserBusy
		s.SleepTime += c.Stats.SleepTime
		s.UserTasks += c.Stats.UserTasks
	}
	return s
}
