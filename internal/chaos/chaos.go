// Package chaos is the time-varying fault scenario engine: it composes
// link flaps and Gilbert–Elliott bursty loss into a single fabric.Hook
// that drops frames. Every random decision comes from a per-source-node
// stream derived from the scenario seed, and all mutable state (the
// Gilbert–Elliott chain, the RNG cursor) is keyed by source node — the
// fabric consults the hook on the source port's shard, so under -par N
// each node's state is touched by exactly one goroutine per barrier
// window and results are bit-identical at any shard count.
//
// Link up/down is a pure function of virtual time (no per-frame state at
// all), which is what allows the destination side of a flap to be
// evaluated from the source's shard without synchronization.
package chaos

import (
	"fmt"
	"slices"

	"openmxsim/internal/sim"
)

// LinkFlap takes one node's link down for a window of virtual time.
// While down, every frame to or from the node is dropped before it
// occupies the wire.
type LinkFlap struct {
	Node   int      // node index (wire.MAC.NodeIndex)
	DownAt sim.Time // window start (inclusive)
	UpAt   sim.Time // window end (exclusive); <= DownAt means down forever
}

// down reports whether the flap holds the link down at time t.
func (lf *LinkFlap) down(t sim.Time) bool {
	if lf.UpAt <= lf.DownAt { // permanent outage from DownAt on
		return t >= lf.DownAt
	}
	return t >= lf.DownAt && t < lf.UpAt
}

// GilbertElliott is the classic two-state bursty-loss chain: a Good state
// with loss probability GoodLoss and a Bad state with loss probability
// BadLoss, with per-frame transition probabilities PGoodBad and PBadGood.
// Each source node runs its own chain (started in Good) advanced once per
// frame the node sends.
type GilbertElliott struct {
	GoodLoss float64
	BadLoss  float64
	PGoodBad float64
	PBadGood float64
}

// Loss returns the chain's stationary (long-run average) loss rate.
func (ge *GilbertElliott) Loss() float64 {
	pg, pb := ge.PGoodBad, ge.PBadGood
	if pg+pb <= 0 {
		return ge.GoodLoss
	}
	fracBad := pg / (pg + pb)
	return (1-fracBad)*ge.GoodLoss + fracBad*ge.BadLoss
}

// Bursty builds a Gilbert–Elliott chain with stationary loss rate p whose
// losses arrive in bursts of mean length burst. burst <= 1 degenerates to
// uniform (Bernoulli) loss. The Bad state loses half its frames (so a
// "burst" is a dense loss episode, not a blackout) and the mean Bad-state
// dwell time is chosen to make the expected losses per episode equal
// burst; the Good/Bad occupancy split then pins the stationary rate to p.
func Bursty(p, burst float64) *GilbertElliott {
	if p <= 0 {
		return &GilbertElliott{}
	}
	if p >= 1 {
		return &GilbertElliott{GoodLoss: 1, BadLoss: 1, PBadGood: 1}
	}
	if burst <= 1 {
		return &GilbertElliott{GoodLoss: p, BadLoss: p, PBadGood: 1}
	}
	const badLoss = 0.5
	pbg := badLoss / burst // mean losses per Bad dwell = badLoss/pbg = burst
	x := p / badLoss       // required stationary Bad-state occupancy
	pgb := pbg * x / (1 - x)
	if pgb > 1 {
		pgb = 1
	}
	return &GilbertElliott{BadLoss: badLoss, PGoodBad: pgb, PBadGood: pbg}
}

// Scenario is a declarative time-varying fault plan. Compose it onto a
// cluster via cluster.Config.Scenario; the zero value injects nothing.
type Scenario struct {
	// Flaps lists link-down windows; a node may appear in several.
	Flaps []LinkFlap
	// Loss, when non-nil, runs a Gilbert–Elliott chain per source node.
	Loss *GilbertElliott
	// Seed derives every per-node RNG stream; two runs of the same
	// scenario with the same seed make identical decisions.
	Seed uint64
}

// Validate checks the scenario's parameters.
func (sc *Scenario) Validate() error {
	for i, lf := range sc.Flaps {
		if lf.Node < 0 {
			return fmt.Errorf("chaos: flap %d: negative node %d", i, lf.Node)
		}
		if lf.DownAt < 0 {
			return fmt.Errorf("chaos: flap %d: negative DownAt %v", i, lf.DownAt)
		}
	}
	if ge := sc.Loss; ge != nil {
		for _, v := range []struct {
			name string
			p    float64
		}{
			{"GoodLoss", ge.GoodLoss}, {"BadLoss", ge.BadLoss},
			{"PGoodBad", ge.PGoodBad}, {"PBadGood", ge.PBadGood},
		} {
			if !(v.p >= 0 && v.p <= 1) { // NaN fails too
				return fmt.Errorf("chaos: loss %s=%v outside [0,1]", v.name, v.p)
			}
		}
	}
	return nil
}

// geGood / geBad are the chain states.
const (
	geGood = iota
	geBad
)

// nodeState is one source node's mutable scenario state. It is only ever
// touched from that node's shard (fabric consults the hook on the source
// port's shard), so no locking is needed.
type nodeState struct {
	rng   *sim.RNG
	ge    int
	stats NodeStats
}

// NodeStats counts one node's scenario activity (as frame source; flap
// drops where the node is the down destination are charged to the
// sender).
type NodeStats struct {
	FlapDrops   uint64 // frames dropped because either endpoint was down
	GEDrops     uint64 // frames lost to the Gilbert–Elliott chain
	Transitions uint64 // Good<->Bad state changes
}

// Engine evaluates a Scenario as a fabric.Hook. Construct with New and
// install via fabric.Fault.Hook (cluster.Config.Scenario does both).
type Engine struct {
	sc    Scenario
	base  *sim.RNG
	nodes map[int]*nodeState
	// flapsBy indexes the flap windows by node so Drop is O(own windows),
	// not O(all windows).
	flapsBy map[int][]LinkFlap
}

// New builds the evaluation engine for sc. nodes is the cluster size;
// every per-node stream is derived up front so Drop never mutates the
// map.
func New(sc Scenario, nodes int) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sc:      sc,
		base:    sim.NewRNG(sc.Seed ^ 0xC4A05),
		nodes:   make(map[int]*nodeState, nodes),
		flapsBy: make(map[int][]LinkFlap),
	}
	for i := 0; i < nodes; i++ {
		e.nodes[i] = &nodeState{rng: e.base.Derive(0xCA<<56 | uint64(i))}
	}
	for _, lf := range sc.Flaps {
		e.flapsBy[lf.Node] = append(e.flapsBy[lf.Node], lf)
	}
	return e, nil
}

// LinkDown reports whether node's link is down at time t — a pure
// function of the scenario and t, safe from any shard.
func (e *Engine) LinkDown(node int, t sim.Time) bool {
	for i := range e.flapsBy[node] {
		if e.flapsBy[node][i].down(t) {
			return true
		}
	}
	return false
}

// Drop implements fabric.Hook. It runs on the source port's shard and
// touches only src's nodeState.
func (e *Engine) Drop(src, dst int, now sim.Time) bool {
	down := e.LinkDown(src, now) || e.LinkDown(dst, now)
	ns := e.nodes[src]
	if ns == nil {
		// A node outside the cluster size New was given: the flap
		// windows still apply, the loss chain does not.
		return down
	}
	if down {
		ns.stats.FlapDrops++
		return true
	}
	ge := e.sc.Loss
	if ge == nil {
		return false
	}
	loss, flip := ge.GoodLoss, ge.PGoodBad
	if ns.ge == geBad {
		loss, flip = ge.BadLoss, ge.PBadGood
	}
	drop := loss > 0 && ns.rng.Bool(loss)
	if flip > 0 && ns.rng.Bool(flip) {
		ns.ge ^= geGood ^ geBad
		ns.stats.Transitions++
	}
	if drop {
		ns.stats.GEDrops++
	}
	return drop
}

// Stats returns the summed per-node counters.
func (e *Engine) Stats() NodeStats {
	var t NodeStats
	//omxlint:allow maprange: integer sums are order-independent
	for _, ns := range e.nodes {
		t.FlapDrops += ns.stats.FlapDrops
		t.GEDrops += ns.stats.GEDrops
		t.Transitions += ns.stats.Transitions
	}
	return t
}

// NodeStats returns one node's counters (zero value for unknown nodes).
func (e *Engine) NodeStats(node int) NodeStats {
	if ns := e.nodes[node]; ns != nil {
		return ns.stats
	}
	return NodeStats{}
}

// Edges lists node's flap transition times (down and up edges) in
// ascending order — the marker events cluster wiring schedules on each
// owning shard so a trace of the run shows when the scenario acted.
func (sc *Scenario) Edges(node int) []sim.Time {
	var ts []sim.Time
	for _, lf := range sc.Flaps {
		if lf.Node != node {
			continue
		}
		ts = append(ts, lf.DownAt)
		if lf.UpAt > lf.DownAt {
			ts = append(ts, lf.UpAt)
		}
	}
	slices.Sort(ts)
	return ts
}
