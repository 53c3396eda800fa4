package tune

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"openmxsim/internal/cluster"
	"openmxsim/internal/nic"
	"openmxsim/internal/sim"
	"openmxsim/internal/sweep"
)

// Spec describes one tuning problem: a workload (message size, cluster
// shape, background load), a search space (strategies crossed with a
// discrete delay lattice), an evaluation budget, and the latency-weight
// the caller dials. The zero Spec tunes the paper platform's 0-byte
// ping-pong over the four fixed strategies and a 0-100 us lattice.
type Spec struct {
	// Size is the message size in bytes. Zero is a valid workload (the
	// paper's minimum message), not a default sentinel.
	Size int `json:"size_bytes"`
	// Nodes is the cluster size (default 2, raised for background load).
	Nodes int `json:"nodes"`
	// BgStreams adds background bulk senders congesting the receiver.
	BgStreams int `json:"bg_streams"`
	// DropProb, when > 0, tunes under a bursty-loss scenario of this
	// stationary rate (sweep.Grid.DropProb semantics): the knee the
	// search converges to is then the lossy-fabric knee, which can sit
	// at a very different delay than the clean one. Burst is the mean
	// loss-episode length (<= 1 = uniform loss).
	DropProb float64 `json:"drop_prob"`
	Burst    float64 `json:"burst"`
	// Iters is the ping-pong iteration count per evaluation (default 30).
	Iters int `json:"iters"`
	// Seed drives every evaluation (default 1); equal Specs converge to
	// the same point bit for bit.
	Seed uint64 `json:"seed"`
	// Rate additionally measures the stream interrupt rate at every
	// evaluated point, making interrupts/sec the load objective (roughly
	// doubles the per-point cost; off, the load objective is the
	// ping-pong's interrupts per message).
	Rate bool `json:"rate"`
	// RateWarmup and RateMeasure bound the rate windows when Rate is on
	// (defaults 10 ms and 50 ms, as in sweep.Grid).
	RateWarmup  sim.Time `json:"rate_warmup_ns"`
	RateMeasure sim.Time `json:"rate_measure_ns"`

	// Strategies is the strategy axis (default disabled, timeout,
	// openmx, stream). Strategies that ignore the delay (disabled) cost
	// one evaluation instead of one per lattice point.
	Strategies []nic.Strategy `json:"strategies"`
	// Delays is the discrete delay lattice the search refines over
	// (default 0-100 us every 5 us). It is sorted and deduplicated.
	Delays []sim.Time `json:"delays_ns"`

	// MaxEvals bounds the number of simulated points (the budget).
	// Default: 30% of the exhaustive cartesian size, but at least 8.
	MaxEvals int `json:"max_evals"`
	// LatencyWeight dials the scalarized objective used to rank
	// strategies during halving and to pick Outcome.Best. The zero value
	// selects the balanced default 0.5; use a small positive value (e.g.
	// 0.01) to chase pure interrupt load, 1 for pure latency.
	LatencyWeight float64 `json:"latency_weight"`
	// Workers sizes the sweep worker pool per round (0 = GOMAXPROCS).
	// Excluded from JSON: the outcome is identical at any worker count.
	// Each evaluated cluster runs on the serial reference engine; the
	// tuner has no per-point parallelism knob.
	Workers int `json:"-"`
	// Observer, when non-nil, receives every evaluated point's result the
	// moment its simulation completes (sweep.Observer semantics: worker
	// goroutines, completion order, Index still carrying the per-batch
	// position — the Outcome reindexes afterwards). Execution-only, like
	// Workers: it never affects the outcome and never reaches the JSON
	// form.
	Observer sweep.Observer `json:"-"`
}

// normalized fills defaulted Spec fields; the delay lattice comes back
// sorted and deduplicated.
func (s Spec) normalized() Spec {
	if s.Iters <= 0 {
		s.Iters = 30
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.RateWarmup <= 0 {
		s.RateWarmup = 10 * sim.Millisecond
	}
	if s.RateMeasure <= 0 {
		s.RateMeasure = 50 * sim.Millisecond
	}
	// Burst only means anything under loss; canonicalize so a clean Spec
	// has one JSON form regardless of how the caller spelled "no loss".
	if s.DropProb <= 0 {
		s.Burst = 0
	} else if s.Burst <= 1 {
		s.Burst = 1
	}
	if len(s.Strategies) == 0 {
		s.Strategies = []nic.Strategy{
			nic.StrategyDisabled, nic.StrategyTimeout,
			nic.StrategyOpenMX, nic.StrategyStream,
		}
	}
	if len(s.Delays) == 0 {
		for d := sim.Time(0); d <= 100*sim.Microsecond; d += 5 * sim.Microsecond {
			s.Delays = append(s.Delays, d)
		}
	}
	lattice := append([]sim.Time(nil), s.Delays...)
	sort.Slice(lattice, func(a, b int) bool { return lattice[a] < lattice[b] })
	dedup := lattice[:0]
	for i, d := range lattice {
		if i == 0 || d != lattice[i-1] {
			dedup = append(dedup, d)
		}
	}
	s.Delays = dedup
	if s.MaxEvals <= 0 {
		s.MaxEvals = 3 * len(s.Strategies) * len(s.Delays) / 10
		if s.MaxEvals < 8 {
			s.MaxEvals = 8
		}
	}
	if s.LatencyWeight == 0 {
		s.LatencyWeight = 0.5
	}
	return s
}

// Validate returns an error for a spec the sweep executor would refuse,
// before any simulation runs. It checks the fields as given, so a caller
// can run it before Canonical, whose JSON form cannot carry a NaN.
func (s Spec) Validate() error {
	if s.Size < 0 {
		return fmt.Errorf("tune: negative message size %d", s.Size)
	}
	if s.BgStreams < 0 {
		return fmt.Errorf("tune: negative background stream count %d", s.BgStreams)
	}
	if s.Nodes != 0 && s.Nodes < 2 {
		return fmt.Errorf("tune: node count %d (the ping-pong needs two nodes)", s.Nodes)
	}
	if s.Nodes > cluster.MaxNodes {
		return fmt.Errorf("tune: node count %d: want at most %d", s.Nodes, cluster.MaxNodes)
	}
	// Each background stream takes a node of its own beside the ping-pong
	// pair (sweep.Point.Config).
	if s.BgStreams > cluster.MaxNodes-2 {
		return fmt.Errorf("tune: %d background streams: want at most %d (each takes a node)", s.BgStreams, cluster.MaxNodes-2)
	}
	for _, st := range s.Strategies {
		if !st.Known() {
			return fmt.Errorf("tune: unknown strategy %d", int(st))
		}
	}
	for _, d := range s.Delays {
		if d < 0 {
			return fmt.Errorf("tune: negative delay %d in lattice", d)
		}
	}
	// Range checks are written so that NaN fails them too.
	if !(s.LatencyWeight >= 0 && s.LatencyWeight <= 1) {
		return fmt.Errorf("tune: latency weight %g outside [0,1]", s.LatencyWeight)
	}
	if !(s.DropProb >= 0 && s.DropProb < 1) {
		return fmt.Errorf("tune: drop probability %g outside [0,1)", s.DropProb)
	}
	if !(s.Burst >= 0) || math.IsInf(s.Burst, 1) {
		return fmt.Errorf("tune: burst length %g: want >= 0 and finite", s.Burst)
	}
	return nil
}

// delaySensitive reports whether a strategy's behaviour depends on the
// coalescing delay at all; insensitive strategies are evaluated at a
// single lattice point.
func delaySensitive(s nic.Strategy) bool { return s != nic.StrategyDisabled }

// Outcome is the result of one Search: every evaluated point (in
// evaluation order), the tradeoff analysis over them, the chosen knee and
// weighted-best points, and the feedback goal derived from the knee. The
// encoding is deterministic: equal Specs yield byte-identical JSON at any
// worker count.
type Outcome struct {
	Spec Spec `json:"spec"`
	// Evaluated lists the simulated points in evaluation order,
	// reindexed sequentially.
	Evaluated sweep.Results `json:"evaluated"`
	// Evals is len(Evaluated); Exhaustive the cartesian size an
	// exhaustive sweep of the same space would cost.
	Evals      int `json:"evals"`
	Exhaustive int `json:"exhaustive"`
	// Tradeoff is the frontier analysis over Evaluated.
	Tradeoff *Tradeoff `json:"tradeoff"`
	// Knee is the chord-distance knee of the evaluated frontier; Best
	// the Score(LatencyWeight) minimizer. They often coincide.
	Knee Point `json:"knee"`
	Best Point `json:"best"`
	// Feedback is the closed-loop goal derived from the knee, ready for
	// cluster.Config.Feedback with Strategy = StrategyFeedback.
	Feedback nic.FeedbackGoal `json:"feedback"`
}

// JSON renders the outcome as indented JSON; equal Specs yield
// byte-identical output at any worker count.
func (o *Outcome) JSON() ([]byte, error) {
	c := *o
	if c.Evaluated == nil {
		c.Evaluated = sweep.Results{}
	}
	return json.MarshalIndent(&c, "", "  ")
}

// WriteJSON writes the JSON form followed by a newline.
func (o *Outcome) WriteJSON(w io.Writer) error {
	b, err := o.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// FeedbackGoalFor derives the closed-loop runtime goal from a chosen
// tradeoff point: hold the interrupt rate at the point's measured load
// and keep delivery latency under the point's measured latency. When the
// load objective is interrupts/message (no rate measurement), the rate
// target is approximated from the ping-pong period (one message each way
// per two one-way latencies).
func FeedbackGoalFor(p Point) nic.FeedbackGoal {
	g := nic.FeedbackGoal{MaxLatency: sim.Time(p.LatencyNS)}
	switch {
	case p.RateIntrPerSec > 0:
		g.TargetIntrPerSec = p.RateIntrPerSec
	case p.LatencyNS > 0:
		g.TargetIntrPerSec = p.IntrPerMsg * float64(sim.Second) / (2 * float64(p.LatencyNS))
	}
	return g
}

// Canonical returns the spec in content-address form: every defaulted
// field filled — so equivalent spellings of the same tuning problem
// collide on one cache key — and the execution-only knobs (Workers,
// Observer) cleared, because the outcome is bit-identical at any worker
// count and must not split a result cache by machine shape.
func (s Spec) Canonical() Spec {
	s = s.normalized()
	s.Workers, s.Observer = 0, nil
	return s
}

// searcher carries one Search invocation's state.
type searcher struct {
	ctx       context.Context
	spec      Spec
	lattice   []sim.Time
	seen      map[searchKey]bool
	evaluated sweep.Results
}

type searchKey struct {
	strategy nic.Strategy
	delay    sim.Time
}

// Search finds the tradeoff for a workload without sweeping the whole
// space: a coarse pass samples every strategy across the delay lattice
// (endpoints always included), successive halving then concentrates the
// budget on the best-scoring strategies at ever finer strides, and a
// final local pass refines the lattice neighborhood of the incumbent
// knee. Every decision is a pure function of deterministic sweep results,
// so the same Spec converges to the same point at any worker count. The
// search stops at Spec.MaxEvals simulated points.
func Search(spec Spec) (*Outcome, error) {
	return SearchContext(context.Background(), spec)
}

// SearchContext is Search under external supervision: ctx cancellation is
// observed at the sweep executor's between-points seam, so every
// completed evaluation is bit-identical to an uncancelled search's. A
// cancelled search returns a nil Outcome and an error wrapping ctx's
// (errors.Is against context.Canceled / DeadlineExceeded works) — unlike
// a sweep, a truncated search has no meaningful partial answer, because
// the knee moves as points land.
func SearchContext(ctx context.Context, spec Spec) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.normalized()
	s := &searcher{ctx: ctx, spec: spec, lattice: spec.Delays, seen: map[searchKey]bool{}}

	// Phase 1 — coarse: every strategy at both lattice endpoints and the
	// midpoint, so the frontier's extremes (which anchor the knee chord)
	// are represented from the start.
	half := (len(s.lattice) - 1) / 2
	coarse := []int{0, half, len(s.lattice) - 1}
	for _, st := range spec.Strategies {
		if err := s.evalBatch(st, coarse); err != nil {
			return nil, err
		}
	}

	// Phase 2 — successive halving: rank strategies by their best
	// scalarized score, keep the better half, and sample midpoints
	// around each survivor's best delay at a halving stride.
	survivors := append([]nic.Strategy(nil), spec.Strategies...)
	for stride := half; stride >= 1 && s.budgetLeft(); stride /= 2 {
		if len(survivors) > 1 {
			survivors = s.keepBest((len(survivors)+1)/2, survivors)
		}
		for _, st := range survivors {
			bi, ok := s.bestIndexFor(st)
			if !ok {
				continue
			}
			if err := s.evalBatch(st, []int{bi - stride, bi + stride}); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3 — local refinement: walk the +-1/+-2 lattice neighborhood
	// of the incumbent knee (and weighted best) until the neighborhood
	// is exhausted or the budget runs out. Each pass evaluates at least
	// one fresh point or stops, so the loop terminates.
	for s.budgetLeft() {
		t := Frontier(s.evaluated)
		fresh := false
		for _, idx := range []int{t.KneeIdx, t.scoreIdx(spec.LatencyWeight)} {
			if idx < 0 {
				continue
			}
			p := t.Points[idx]
			st, li, ok := s.locate(p)
			if !ok || !delaySensitive(st) {
				continue
			}
			n := len(s.evaluated)
			if err := s.evalBatch(st, []int{li - 2, li - 1, li + 1, li + 2}); err != nil {
				return nil, err
			}
			if len(s.evaluated) > n {
				fresh = true
			}
		}
		if !fresh {
			break
		}
	}

	out := &Outcome{
		Spec:       spec,
		Evaluated:  s.evaluated,
		Evals:      len(s.evaluated),
		Exhaustive: len(spec.Strategies) * len(s.lattice),
		Tradeoff:   Frontier(s.evaluated),
	}
	if p, ok := out.Tradeoff.Knee(); ok {
		out.Knee = p
		out.Feedback = FeedbackGoalFor(p)
	}
	if p, ok := out.Tradeoff.Score(spec.LatencyWeight); ok {
		out.Best = p
	}
	return out, nil
}

// budgetLeft reports whether another evaluation fits in the budget.
func (s *searcher) budgetLeft() bool { return len(s.evaluated) < s.spec.MaxEvals }

// evalBatch simulates the strategy at the given lattice indices (clipped,
// deduplicated, unseen-only, truncated to the budget) through the sweep
// executor, and appends the results in lattice order.
func (s *searcher) evalBatch(st nic.Strategy, indices []int) error {
	space := s.lattice
	if !delaySensitive(st) {
		space = s.lattice[:1]
	}
	picked := map[int]bool{}
	var delays []sim.Time
	for _, i := range indices {
		if i < 0 {
			i = 0
		}
		if i >= len(space) {
			i = len(space) - 1
		}
		if picked[i] || s.seen[searchKey{st, space[i]}] {
			continue
		}
		if len(s.evaluated)+len(delays) >= s.spec.MaxEvals {
			break
		}
		picked[i] = true
		delays = append(delays, space[i])
	}
	if len(delays) == 0 {
		return nil
	}
	sort.Slice(delays, func(a, b int) bool { return delays[a] < delays[b] })

	g := sweep.Grid{
		Strategies:  []nic.Strategy{st},
		Delays:      delays,
		Sizes:       []int{s.spec.Size},
		Seeds:       []uint64{s.spec.Seed},
		Iters:       s.spec.Iters,
		Rate:        s.spec.Rate,
		RateWarmup:  s.spec.RateWarmup,
		RateMeasure: s.spec.RateMeasure,
	}
	if s.spec.Nodes > 0 {
		g.Nodes = []int{s.spec.Nodes}
	}
	if s.spec.BgStreams > 0 {
		g.BgStreams = []int{s.spec.BgStreams}
	}
	if s.spec.DropProb > 0 {
		g.DropProb = []float64{s.spec.DropProb}
		g.Burst = []float64{s.spec.Burst}
	}
	rs, err := sweep.RunContext(s.ctx, g, s.spec.Workers, s.spec.Observer)
	if err != nil {
		return err
	}
	for _, r := range rs {
		r.Index = len(s.evaluated)
		s.evaluated = append(s.evaluated, r)
	}
	for _, d := range delays {
		s.seen[searchKey{st, d}] = true
	}
	return nil
}

// keepBest ranks the strategies by their best scalarized score over the
// points evaluated so far and keeps the top n, preserving Spec order
// among the kept (deterministic tie-break).
func (s *searcher) keepBest(n int, strategies []nic.Strategy) []nic.Strategy {
	t := Frontier(s.evaluated)
	type ranked struct {
		st    nic.Strategy
		best  float64
		order int
	}
	rs := make([]ranked, 0, len(strategies))
	for oi, st := range strategies {
		r := ranked{st: st, best: math.Inf(1), order: oi}
		name := st.String()
		for _, p := range t.Points {
			if p.Err == "" && p.Strategy == name {
				if sc := t.scoreOf(p, s.spec.LatencyWeight); sc < r.best {
					r.best = sc
				}
			}
		}
		rs = append(rs, r)
	}
	sort.SliceStable(rs, func(a, b int) bool {
		if rs[a].best != rs[b].best {
			return rs[a].best < rs[b].best
		}
		return rs[a].order < rs[b].order
	})
	if n > len(rs) {
		n = len(rs)
	}
	kept := make([]nic.Strategy, 0, n)
	for _, r := range rs[:n] {
		kept = append(kept, r.st)
	}
	// Restore Spec order so later batches evaluate in a stable sequence.
	sort.SliceStable(kept, func(a, b int) bool {
		return specOrder(s.spec.Strategies, kept[a]) < specOrder(s.spec.Strategies, kept[b])
	})
	return kept
}

func specOrder(strategies []nic.Strategy, st nic.Strategy) int {
	for i, v := range strategies {
		if v == st {
			return i
		}
	}
	return len(strategies)
}

// bestIndexFor returns the lattice index of the strategy's best-scoring
// evaluated delay.
func (s *searcher) bestIndexFor(st nic.Strategy) (int, bool) {
	t := Frontier(s.evaluated)
	name := st.String()
	bi, found := -1, false
	bestScore := math.Inf(1)
	for _, p := range t.Points {
		if p.Err != "" || p.Strategy != name {
			continue
		}
		if sc := t.scoreOf(p, s.spec.LatencyWeight); sc < bestScore {
			if _, li, ok := s.locate(p); ok {
				bestScore, bi, found = sc, li, true
			}
		}
	}
	return bi, found
}

// locate maps an evaluated point back to its (strategy, lattice index).
// The delay comparison reproduces the sweep's ns -> us float conversion
// instead of truncating the float back to ns, so lattice delays that are
// not whole microseconds still match exactly.
func (s *searcher) locate(p Point) (nic.Strategy, int, bool) {
	st, err := nic.ParseStrategy(p.Strategy)
	if err != nil {
		return 0, 0, false
	}
	for i, v := range s.lattice {
		if float64(v)/float64(sim.Microsecond) == p.DelayUS {
			return st, i, true
		}
	}
	return st, 0, false
}
