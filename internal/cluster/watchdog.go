package cluster

import (
	"fmt"
	"strings"

	"openmxsim/internal/sim"
)

// Watchdog bounds a watched run's liveness. The zero value gets sane
// defaults from its fields' docs.
type Watchdog struct {
	// Interval is the virtual-time check granularity (default 100 ms).
	Interval sim.Time
	// Idle is how many consecutive intervals may pass without any frame
	// delivered, packet sent, or shared-memory message before the run is
	// declared wedged (default 3).
	Idle int
	// MaxVirtual, when > 0, is an absolute virtual-time budget; a run
	// still holding pending events past it fails.
	MaxVirtual sim.Time
}

func (w Watchdog) withDefaults() Watchdog {
	if w.Interval <= 0 {
		w.Interval = 100 * sim.Millisecond
	}
	if w.Idle <= 0 {
		w.Idle = 3
	}
	return w
}

// WedgeError reports a run that failed liveness: either no progress for
// Idle consecutive intervals with events still pending, or the virtual
// clock exceeding MaxVirtual. Diagnostics is a multi-line snapshot of
// engine and stack state at the moment the watchdog fired.
type WedgeError struct {
	At          sim.Time
	Reason      string
	Diagnostics string
}

func (e *WedgeError) Error() string {
	return fmt.Sprintf("cluster: run wedged at t=%v: %s\n%s", e.At, e.Reason, e.Diagnostics)
}

// RunWatched executes the simulation to completion like Run, but under a
// liveness watchdog: it advances the cluster in Interval-sized windows
// and, between windows, checks that traffic is still flowing. A run
// whose engines hold pending events yet move no frames for Idle
// consecutive intervals — a retry loop that lost its peer, a
// self-rearming timer with no workload behind it — fails with a
// *WedgeError carrying diagnostics instead of spinning forever. Returns
// nil when every engine drains (the normal end of a run).
//
// The interval check is a quiescent point (all shards parked), so
// reading cross-shard counters here is safe at any parallelism.
func (c *Cluster) RunWatched(w Watchdog) error {
	w = w.withDefaults()
	last := c.progress()
	idle := 0
	for {
		t, ok := c.peekTime()
		if !ok {
			return nil // all engines drained: normal completion
		}
		if w.MaxVirtual > 0 && t > w.MaxVirtual {
			return &WedgeError{
				At:          c.Now(),
				Reason:      fmt.Sprintf("virtual time budget %v exceeded (next event at %v)", w.MaxVirtual, t),
				Diagnostics: c.diagnostics(),
			}
		}
		// Advance one window from the earliest pending work, so a long
		// quiet gap (a backed-off retry far in the future) counts as one
		// interval, not thousands.
		c.RunUntil(t + w.Interval)
		cur := c.progress()
		if cur == last {
			idle++
			if idle >= w.Idle {
				return &WedgeError{
					At:          c.Now(),
					Reason:      fmt.Sprintf("no frame progress for %d consecutive %v intervals with events pending", idle, w.Interval),
					Diagnostics: c.diagnostics(),
				}
			}
		} else {
			idle = 0
			last = cur
		}
	}
}

// progress is the watchdog's progress signature: anything that moves a
// message. Event execution alone deliberately does not count — a
// self-rearming timer executes forever without progressing the run.
func (c *Cluster) progress() uint64 {
	p := c.Switch.FramesDelivered()
	for _, s := range c.Stacks {
		p += s.Stats.PacketsOut + s.Stats.ShmSent
	}
	return p
}

// peekTime returns the earliest pending event time across all shard
// engines.
func (c *Cluster) peekTime() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, e := range c.Engines {
		if t, ok := e.PeekTime(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// diagnostics renders the per-engine and per-node state the moment the
// watchdog fired.
func (c *Cluster) diagnostics() string {
	var b strings.Builder
	for i, e := range c.Engines {
		t, ok := e.PeekTime()
		next := "drained"
		if ok {
			next = fmt.Sprint(t)
		}
		fmt.Fprintf(&b, "  engine[%d]: now=%v executed=%d pending=%d next=%s\n",
			i, e.Now(), e.Executed, e.Pending(), next)
	}
	for i, s := range c.Stacks {
		st := &s.Stats
		fmt.Fprintf(&b, "  node[%d]: out=%d in=%d retx=%d backoffs=%d giveups=%d pullRetries=%d\n",
			i, st.PacketsOut, st.PacketsIn, st.Retransmits, st.Backoffs, st.GiveUps, st.PullBlockRetries)
	}
	if c.Chaos != nil {
		cs := c.Chaos.Stats()
		fmt.Fprintf(&b, "  chaos: flapDrops=%d geDrops=%d transitions=%d degraded=%d flapEdges=%d\n",
			cs.FlapDrops, cs.GEDrops, cs.Transitions, cs.Degraded, c.FlapEdges())
	}
	return strings.TrimRight(b.String(), "\n")
}
