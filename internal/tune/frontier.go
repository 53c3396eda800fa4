// Package tune closes the loop the paper's title opens: *finding* the
// tradeoff between host interrupt load and MPI latency, not just
// enumerating it. It has three layers:
//
//   - Analysis: Frontier extracts the Pareto-optimal set of a sweep over
//     (interrupt load, latency), tags dominated points, selects the knee
//     (the frontier point farthest from the chord between the frontier's
//     endpoints — the canonical "best compromise"), and scalarizes the
//     two objectives so callers can dial latency- vs load-priority.
//   - Search: Search drives the sweep executor adaptively — coarse grid,
//     successive halving over strategies, local refinement around the
//     incumbent knee — converging to the exhaustive frontier's knee in a
//     fraction of the evaluations, deterministically.
//   - Runtime: the chosen point is turned into a nic.FeedbackGoal, the
//     target the closed-loop StrategyFeedback firmware walks its delay
//     toward at run time.
//
// All analysis is a pure function of sweep results, so equal inputs give
// byte-identical JSON regardless of worker count or machine.
package tune

import (
	"encoding/json"
	"io"
	"math"
	"sort"

	"openmxsim/internal/sweep"
)

// Point is one sweep result positioned in the tradeoff plane.
type Point struct {
	sweep.Result
	// Load is the interrupt-load objective: interrupts/second when the
	// sweep measured rate (Grid.Rate), interrupts/message otherwise.
	Load float64 `json:"load"`
	// LatencyUS is the latency objective in microseconds.
	LatencyUS float64 `json:"latency_us"`
	// Dominated marks points beaten on both objectives by another point
	// (errored points are always dominated).
	Dominated bool `json:"dominated"`
	// Knee marks the selected knee point (at most one per analysis).
	Knee bool `json:"knee"`
}

// objectives extracts the (load, latency) pair of a result. useRate picks
// the load axis for the whole result set: the stream interrupt rate
// (interrupts/sec) when the sweep measured it, interrupts per message
// from the ping-pong otherwise. The choice is per analysis, not per
// point, so one point's legitimately-zero measured rate is never silently
// swapped for a value in different units.
func objectives(r sweep.Result, useRate bool) (load, latencyUS float64) {
	if useRate {
		load = r.RateIntrPerSec
	} else {
		load = r.IntrPerMsg
	}
	return load, float64(r.LatencyNS) / 1000
}

// Tradeoff is the analysis of one result set: every input point tagged
// with its position relative to the Pareto frontier.
type Tradeoff struct {
	// Points holds all input points in input order.
	Points []Point `json:"points"`
	// Front indexes the Pareto-optimal points in Points, sorted by
	// latency ascending (load therefore descending).
	Front []int `json:"front"`
	// KneeIdx indexes the knee point in Points (-1 when no valid point).
	KneeIdx int `json:"knee_idx"`
}

// Frontier analyzes a sweep outcome: it computes the Pareto-optimal set
// over (interrupt load, latency), tags dominated points, and selects the
// knee. A point is kept on the frontier iff no other point is at least as
// good on both objectives and strictly better on one; among exact
// duplicates the first in input order is kept. Errored points never reach
// the frontier.
func Frontier(rs sweep.Results) *Tradeoff {
	t := &Tradeoff{Points: make([]Point, len(rs)), KneeIdx: -1}
	useRate := false
	for _, r := range rs {
		if r.RateIntrPerSec > 0 {
			useRate = true
			break
		}
	}
	valid := make([]int, 0, len(rs))
	for i, r := range rs {
		load, lat := objectives(r, useRate)
		t.Points[i] = Point{Result: r, Load: load, LatencyUS: lat, Dominated: true}
		if r.Err == "" {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return t
	}

	// Sort by (latency asc, load asc, input order) and sweep: a point is
	// non-dominated iff its load is strictly below every earlier (i.e.
	// latency-no-worse) point's best load.
	sort.SliceStable(valid, func(a, b int) bool {
		pa, pb := t.Points[valid[a]], t.Points[valid[b]]
		if pa.LatencyUS != pb.LatencyUS {
			return pa.LatencyUS < pb.LatencyUS
		}
		if pa.Load != pb.Load {
			return pa.Load < pb.Load
		}
		return valid[a] < valid[b]
	})
	best := math.Inf(1)
	for _, i := range valid {
		if t.Points[i].Load < best {
			best = t.Points[i].Load
			t.Points[i].Dominated = false
			t.Front = append(t.Front, i)
		}
	}
	t.KneeIdx = t.knee()
	if t.KneeIdx >= 0 {
		t.Points[t.KneeIdx].Knee = true
	}
	return t
}

// normalizer returns the frontier's objective extents, for mapping both
// axes onto [0,1]. Degenerate (flat) axes normalize to zero span.
func (t *Tradeoff) normalizer() (loadMin, loadSpan, latMin, latSpan float64) {
	loadMin, latMin = math.Inf(1), math.Inf(1)
	loadMax, latMax := math.Inf(-1), math.Inf(-1)
	for _, i := range t.Front {
		p := t.Points[i]
		loadMin, loadMax = math.Min(loadMin, p.Load), math.Max(loadMax, p.Load)
		latMin, latMax = math.Min(latMin, p.LatencyUS), math.Max(latMax, p.LatencyUS)
	}
	return loadMin, loadMax - loadMin, latMin, latMax - latMin
}

// knee selects the frontier point with the greatest perpendicular distance
// to the chord between the frontier's endpoints, in normalized objective
// space. With fewer than three frontier points it falls back to the
// balanced scalarization (Score(0.5)). Ties keep the earliest input point.
func (t *Tradeoff) knee() int {
	if len(t.Front) == 0 {
		return -1
	}
	if len(t.Front) < 3 {
		return t.scoreIdx(0.5)
	}
	loadMin, loadSpan, latMin, latSpan := t.normalizer()
	if loadSpan == 0 || latSpan == 0 {
		return t.scoreIdx(0.5)
	}
	norm := func(i int) (x, y float64) {
		p := t.Points[i]
		return (p.LatencyUS - latMin) / latSpan, (p.Load - loadMin) / loadSpan
	}
	// Front is sorted by latency asc, so its ends are the min-latency and
	// min-load extremes of the frontier.
	x0, y0 := norm(t.Front[0])
	x1, y1 := norm(t.Front[len(t.Front)-1])
	dx, dy := x1-x0, y1-y0
	chord := math.Hypot(dx, dy)
	bestIdx, bestDist := -1, -1.0
	for _, i := range t.Front {
		x, y := norm(i)
		d := math.Abs(dx*(y0-y)-dy*(x0-x)) / chord
		if d > bestDist {
			bestDist, bestIdx = d, i
		}
	}
	return bestIdx
}

// Knee returns the knee point; ok is false when the analysis has no valid
// point.
func (t *Tradeoff) Knee() (Point, bool) {
	if t.KneeIdx < 0 {
		return Point{}, false
	}
	return t.Points[t.KneeIdx], true
}

// scoreOf scalarizes one point against the frontier's extents:
// w*latency + (1-w)*load, both axes normalized to the frontier's span.
// Dominated points outside the frontier's extent legitimately score
// above 1. w is clamped to [0,1].
func (t *Tradeoff) scoreOf(p Point, latencyWeight float64) float64 {
	w := math.Min(math.Max(latencyWeight, 0), 1)
	loadMin, loadSpan, latMin, latSpan := t.normalizer()
	var lat, load float64
	if latSpan > 0 {
		lat = (p.LatencyUS - latMin) / latSpan
	}
	if loadSpan > 0 {
		load = (p.Load - loadMin) / loadSpan
	}
	return w*lat + (1-w)*load
}

// scoreIdx is Score without the Point copy: the index of the frontier
// point minimizing the scalarized objective, -1 on an empty frontier.
func (t *Tradeoff) scoreIdx(latencyWeight float64) int {
	bestIdx, bestScore := -1, math.Inf(1)
	for _, i := range t.Front {
		if s := t.scoreOf(t.Points[i], latencyWeight); s < bestScore {
			bestScore, bestIdx = s, i
		}
	}
	return bestIdx
}

// Score scalarizes the two objectives and returns the frontier point that
// minimizes latencyWeight*latency + (1-latencyWeight)*load, both axes
// normalized to the frontier's extent. latencyWeight 1 chases pure
// latency, 0 pure interrupt load, 0.5 the balanced compromise; values are
// clamped to [0,1]. ok is false on an empty frontier.
func (t *Tradeoff) Score(latencyWeight float64) (Point, bool) {
	i := t.scoreIdx(latencyWeight)
	if i < 0 {
		return Point{}, false
	}
	return t.Points[i], true
}

// JSON renders the analysis as indented JSON; equal inputs yield
// byte-identical output.
func (t *Tradeoff) JSON() ([]byte, error) {
	c := *t
	if c.Points == nil {
		c.Points = []Point{}
	}
	if c.Front == nil {
		c.Front = []int{}
	}
	return json.MarshalIndent(&c, "", "  ")
}

// WriteJSON writes the JSON form followed by a newline.
func (t *Tradeoff) WriteJSON(w io.Writer) error {
	b, err := t.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
