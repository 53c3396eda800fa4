package nic

import (
	"fmt"
	"strings"

	"openmxsim/internal/host"
	"openmxsim/internal/params"
	"openmxsim/internal/sim"
	"openmxsim/internal/trace"
)

// Strategy enumerates the interrupt coalescing strategies under study.
type Strategy int

const (
	// StrategyDisabled raises one interrupt per packet (coalescing off,
	// the "Disabled" column of the paper's tables).
	StrategyDisabled Strategy = iota
	// StrategyTimeout is classic timeout-based coalescing (the "Default"
	// column at 75 us, and the Fig. 4 sweep).
	StrategyTimeout
	// StrategyOpenMX is the paper's Algorithm 1: interrupt immediately
	// when a latency-sensitive (marked) packet's DMA completes; other
	// packets obey the timeout.
	StrategyOpenMX
	// StrategyStream is the paper's Algorithm 2: like OpenMX, but a marked
	// completion with other DMAs pending defers the interrupt until the
	// NIC goes quiet, coalescing bursts of small messages.
	StrategyStream
	// StrategyAdaptive is the Section VI future-work extension: the
	// timeout adapts to the observed packet rate.
	StrategyAdaptive
	// StrategyFeedback is the closed-loop tuner extension: the firmware
	// measures its own interrupt rate and delivery latency over sliding
	// windows and walks the delay toward a goal supplied by the tuner
	// (internal/tune). Where StrategyAdaptive maps packet rate onto a
	// delay by threshold, feedback goal-seeks: it converges to whatever
	// delay holds the interrupt rate at the target without blowing the
	// latency budget.
	StrategyFeedback
)

var strategyNames = [...]string{"disabled", "timeout", "openmx", "stream", "adaptive", "feedback"}

func (s Strategy) String() string {
	if s >= 0 && int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Known reports whether s is one of the defined strategies.
func (s Strategy) Known() bool { return s >= 0 && int(s) < len(strategyNames) }

// KnownStrategies lists every defined strategy name, for error messages
// ("want one of ...") and CLI usage strings.
func KnownStrategies() string { return strings.Join(strategyNames[:], ", ") }

// ParseStrategy converts a name into a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if n == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("nic: unknown strategy %q", name)
}

// coalescer is the per-queue firmware decision logic.
type coalescer interface {
	Name() string
	// onDMAComplete runs when a packet's DMA finishes; pending is the
	// number of other frames accepted but not yet DMA-complete.
	onDMAComplete(d *RxDesc, pending int)
	// onBacklog runs when a poll cycle ends with packets still queued
	// (e.g. they arrived after the final ring check).
	onBacklog()
	// currentDelay reports the instantaneous coalescing delay (0 when
	// coalescing is disabled) — a telemetry gauge, never a control input.
	currentDelay() sim.Time
}

func newCoalescer(cfg Config, q *rxQueue) coalescer {
	switch cfg.Strategy {
	case StrategyDisabled:
		return &disabledCoalescer{q: q}
	case StrategyTimeout:
		c := &timeoutCoalescer{q: q, delay: cfg.Delay}
		c.bindTimer()
		return c
	case StrategyOpenMX:
		c := &omxCoalescer{timeoutCoalescer{q: q, delay: cfg.Delay}}
		c.bindTimer()
		return c
	case StrategyStream:
		c := &streamCoalescer{omxCoalescer{timeoutCoalescer{q: q, delay: cfg.Delay}}, false}
		c.bindTimer()
		return c
	case StrategyAdaptive:
		c := &adaptiveCoalescer{timeoutCoalescer: timeoutCoalescer{q: q, delay: cfg.Delay}}
		p := q.nic.p.NIC
		if c.delay < p.AdaptiveMin {
			c.delay = p.AdaptiveMin
		}
		c.bindTimer()
		return c
	case StrategyFeedback:
		p := q.nic.p.NIC
		c := &feedbackCoalescer{
			timeoutCoalescer: timeoutCoalescer{q: q, delay: cfg.Delay},
			goal:             cfg.Feedback.withDefaults(p),
			step:             p.FeedbackStep,
			min:              p.AdaptiveMin,
			max:              p.AdaptiveMax,
			window:           p.FeedbackWindow,
		}
		if c.delay < c.min {
			c.delay = c.min
		}
		if c.delay > c.max {
			c.delay = c.max
		}
		// The feedback strategy binds its own timer callback so timer
		// fires are observed (counted and latency-sampled), which the
		// embedded timeoutCoalescer's non-virtual fireTimeout would skip.
		c.timerFn = func() {
			c.timer = nil
			c.fireObserved()
		}
		return c
	default:
		panic(fmt.Sprintf("nic: unknown strategy %d", cfg.Strategy))
	}
}

// rxQueue is one receive queue: completion ring + mask + strategy. The poll
// callbacks are bound once at NIC construction; pollCore/polled/cur carry
// the state of the single in-flight NAPI cycle (the mask guarantees at most
// one per queue).
type rxQueue struct {
	nic       *NIC
	idx       int
	completed sim.Queue[*RxDesc]
	masked    bool
	coal      coalescer
	// markers is set when the firmware reads the latency-sensitive flag,
	// and fw is its per-packet work; both follow from the strategy.
	markers bool
	fw      sim.Time

	pollCore    *host.Core
	polled      int
	cur         *RxDesc // descriptor currently at the driver
	msiFn       func()
	pollStartFn func(any)
	pollEndFn   func(any)
	contFn      func()
}

// disabledCoalescer: interrupt per packet.
type disabledCoalescer struct{ q *rxQueue }

func (c *disabledCoalescer) Name() string { return "disabled" }

//omxlint:hotpath
func (c *disabledCoalescer) onDMAComplete(d *RxDesc, pending int) {
	c.q.nic.requestInterrupt(c.q, causeImmediate)
}

func (c *disabledCoalescer) onBacklog() {
	c.q.nic.requestInterrupt(c.q, causeImmediate)
}

func (c *disabledCoalescer) currentDelay() sim.Time { return 0 }

// timeoutCoalescer: classic delay coalescing. The timer is armed by the
// first completion after the previous interrupt, so an isolated packet
// waits the full delay — the latency cost the paper measures in Fig. 5.
type timeoutCoalescer struct {
	q       *rxQueue
	delay   sim.Time
	timer   *sim.Event
	timerFn func() // bound once so arming the timer never allocates
}

// bindTimer creates the coalescing timer callback once; fireTimeout is
// shared by every strategy that embeds the timeout behaviour.
func (c *timeoutCoalescer) bindTimer() {
	c.timerFn = func() {
		c.timer = nil
		c.fireTimeout()
	}
}

func (c *timeoutCoalescer) Name() string {
	return fmt.Sprintf("timeout(%dus)", c.delay/sim.Microsecond)
}

//omxlint:hotpath
func (c *timeoutCoalescer) onDMAComplete(d *RxDesc, pending int) { c.arm() }

func (c *timeoutCoalescer) onBacklog() { c.arm() }

// currentDelay is promoted through embedding to every timeout-derived
// strategy, so the adaptive and feedback delays report their live value.
func (c *timeoutCoalescer) currentDelay() sim.Time { return c.delay }

//omxlint:hotpath
func (c *timeoutCoalescer) arm() {
	if c.timer != nil {
		return
	}
	c.timer = c.q.nic.eng.After(c.delay, c.timerFn)
}

//omxlint:hotpath
func (c *timeoutCoalescer) fireTimeout() {
	if c.q.completed.Len() == 0 {
		return
	}
	c.q.nic.requestInterrupt(c.q, causeTimeout)
}

// omxCoalescer implements the paper's Algorithm 1 on top of the timeout
// behaviour: a marked descriptor raises the interrupt at DMA completion.
type omxCoalescer struct{ timeoutCoalescer }

func (c *omxCoalescer) Name() string { return fmt.Sprintf("openmx(%dus)", c.delay/sim.Microsecond) }

//omxlint:hotpath
func (c *omxCoalescer) onDMAComplete(d *RxDesc, pending int) {
	if d.Marked {
		c.raiseMarked()
		return
	}
	c.timeoutCoalescer.onDMAComplete(d, pending)
}

func (c *omxCoalescer) onBacklog() {
	for i := 0; i < c.q.completed.Len(); i++ {
		if c.q.completed.At(i).Marked {
			c.raiseMarked()
			return
		}
	}
	c.arm()
}

func (c *omxCoalescer) raiseMarked() {
	if c.timer != nil {
		c.timer.Cancel()
		c.timer = nil
	}
	c.q.nic.requestInterrupt(c.q, causeMarked)
}

// streamCoalescer implements the paper's Algorithm 2: marked completions
// with other DMAs pending set a deferred flag instead of interrupting; the
// interrupt fires when the NIC goes quiet (no DMA pending), coalescing the
// whole burst into one interrupt. The coalescing timeout still bounds the
// deferral for very long streams.
type streamCoalescer struct {
	omxCoalescer
	deferred bool
}

func (c *streamCoalescer) Name() string { return fmt.Sprintf("stream(%dus)", c.delay/sim.Microsecond) }

//omxlint:hotpath
func (c *streamCoalescer) onDMAComplete(d *RxDesc, pending int) {
	if pending == 0 {
		if d.Marked || c.deferred {
			c.deferred = false
			if d.Marked {
				c.raiseMarked()
			} else {
				c.raiseDeferred()
			}
			return
		}
		c.timeoutCoalescer.onDMAComplete(d, pending)
		return
	}
	if d.Marked {
		if !c.deferred {
			c.deferred = true
			c.q.nic.Stats.Deferred++
		}
		return
	}
	c.timeoutCoalescer.onDMAComplete(d, pending)
}

func (c *streamCoalescer) onBacklog() {
	if c.deferred {
		c.deferred = false
		c.raiseDeferred()
		return
	}
	c.omxCoalescer.onBacklog()
}

func (c *streamCoalescer) raiseDeferred() {
	if c.timer != nil {
		c.timer.Cancel()
		c.timer = nil
	}
	c.q.nic.requestInterrupt(c.q, causeMarked)
}

// adaptiveCoalescer adjusts the timeout with the observed packet rate
// (Section VI): sparse traffic converges to the minimum delay (near
// per-packet interrupts, good latency), dense traffic to the maximum (good
// throughput). The paper's early tests found it "helps microbenchmarks but
// cannot help real applications" because it only reacts to past traffic.
type adaptiveCoalescer struct {
	timeoutCoalescer
	// windowStarted distinguishes "no window open yet" from a window that
	// genuinely opened at simulated time 0 (a plain windowStart == 0
	// sentinel would silently restart the rate window on every completion
	// until the clock moved).
	windowStarted bool
	windowStart   sim.Time
	windowCount   int
}

func (c *adaptiveCoalescer) Name() string { return "adaptive" }

//omxlint:hotpath
func (c *adaptiveCoalescer) onDMAComplete(d *RxDesc, pending int) {
	c.adapt()
	c.timeoutCoalescer.onDMAComplete(d, pending)
}

func (c *adaptiveCoalescer) adapt() {
	p := c.q.nic.p.NIC
	now := c.q.nic.eng.Now()
	if !c.windowStarted {
		c.windowStarted = true
		c.windowStart = now
	}
	c.windowCount++
	if now-c.windowStart < p.AdaptiveWindow {
		return
	}
	// Packets per window mapped linearly onto [AdaptiveMin, AdaptiveMax]:
	// <= lo packets -> min delay; >= hi packets -> max delay.
	const lo, hi = 4, 128
	n := c.windowCount
	c.windowCount = 0
	c.windowStart = now
	switch {
	case n <= lo:
		c.delay = p.AdaptiveMin
	case n >= hi:
		c.delay = p.AdaptiveMax
	default:
		span := int64(p.AdaptiveMax - p.AdaptiveMin)
		c.delay = p.AdaptiveMin + sim.Time(span*int64(n-lo)/int64(hi-lo))
	}
}

// Delay exposes the current adaptive delay for tests and diagnostics.
func (c *adaptiveCoalescer) Delay() sim.Time { return c.delay }

// FeedbackGoal is the tuner-supplied goal for StrategyFeedback: hold the
// queue's interrupt rate at the target without letting mean delivery
// latency exceed the budget. Zero fields fall back to the params defaults.
type FeedbackGoal struct {
	// TargetIntrPerSec is the interrupt-rate goal (interrupts/second on
	// this queue, poll-absorbed requests not counted).
	TargetIntrPerSec float64 `json:"target_intr_per_sec"`
	// MaxLatency bounds the mean delivery latency (frame arrival at the
	// NIC to the interrupt that hands it to the host).
	MaxLatency sim.Time `json:"max_latency_ns"`
}

// withDefaults resolves zero goal fields to the calibrated defaults.
func (g FeedbackGoal) withDefaults(p params.NIC) FeedbackGoal {
	if g.TargetIntrPerSec <= 0 {
		g.TargetIntrPerSec = p.FeedbackTargetIntrPerSec
	}
	if g.MaxLatency <= 0 {
		g.MaxLatency = p.FeedbackMaxLatency
	}
	return g
}

// feedbackLowWater is the fraction of the target rate below which the
// controller spends spare interrupt budget on latency (walks the delay
// down). The gap between it and 1.0 is the hysteresis band that keeps the
// delay from oscillating every window.
const feedbackLowWater = 0.5

// feedbackCoalescer is the closed-loop strategy: timeout coalescing whose
// delay is steered by a controller rather than fixed. Every window it
// compares the measured interrupt rate and mean delivery latency against
// the goal and walks the delay one step: down when latency is over budget,
// up when the interrupt rate is over target, down again when the rate is
// far enough under target that latency can be bought back. The delay is
// clamped to [AdaptiveMin, AdaptiveMax].
type feedbackCoalescer struct {
	timeoutCoalescer
	goal FeedbackGoal
	step sim.Time
	min  sim.Time
	max  sim.Time

	// window bookkeeping; windowStarted distinguishes "no window yet"
	// from a window opened at simulated time 0 (same sentinel rationale
	// as adaptiveCoalescer).
	window        sim.Time
	windowStarted bool
	windowStart   sim.Time
	intrWindow    int
	ageSum        sim.Time
	ageCount      int
}

func (c *feedbackCoalescer) Name() string {
	return fmt.Sprintf("feedback(%dus)", c.delay/sim.Microsecond)
}

//omxlint:hotpath
func (c *feedbackCoalescer) onDMAComplete(d *RxDesc, pending int) {
	c.observeWindow()
	c.arm()
}

func (c *feedbackCoalescer) onBacklog() { c.arm() }

// fireObserved raises the coalescing interrupt like timeoutCoalescer's
// fireTimeout, but records it for the controller: unmasked requests (the
// ones that really interrupt) are counted, and the age of the oldest
// waiting descriptor is sampled as the delivery latency of this window.
func (c *feedbackCoalescer) fireObserved() {
	if c.q.completed.Len() == 0 {
		return
	}
	if !c.q.masked {
		c.intrWindow++
		c.sampleAge()
	}
	c.q.nic.requestInterrupt(c.q, causeTimeout)
}

// sampleAge records how long the oldest completed descriptor has been
// waiting: arrival-to-interrupt for received frames, DMA-done-to-interrupt
// for tx completions (which never arrived on the wire).
func (c *feedbackCoalescer) sampleAge() {
	d := c.q.completed.At(0)
	ref := d.ArrivedAt
	if d.Frame == nil {
		ref = d.DMADoneAt
	}
	c.ageSum += c.q.nic.eng.Now() - ref
	c.ageCount++
}

// observeWindow runs the controller when the current measurement window
// has elapsed. It is driven at DMA-completion cadence (like the adaptive
// strategy), so windows close on the next completion past their end.
func (c *feedbackCoalescer) observeWindow() {
	now := c.q.nic.eng.Now()
	if !c.windowStarted {
		c.windowStarted = true
		c.windowStart = now
		return
	}
	elapsed := now - c.windowStart
	if elapsed < c.window {
		return
	}
	rate := float64(c.intrWindow) * float64(sim.Second) / float64(elapsed)
	var meanAge sim.Time
	if c.ageCount > 0 {
		meanAge = c.ageSum / sim.Time(c.ageCount)
	}
	switch {
	case meanAge > c.goal.MaxLatency:
		// Latency over budget: coalesce less, whatever the rate says.
		c.walk(-c.step)
	case rate > c.goal.TargetIntrPerSec:
		// Interrupt load over target: coalesce harder.
		c.walk(c.step)
	case rate < feedbackLowWater*c.goal.TargetIntrPerSec && 2*meanAge <= c.goal.MaxLatency:
		// Far under the interrupt budget with latency headroom: spend
		// the spare budget on latency.
		c.walk(-c.step)
	}
	c.intrWindow, c.ageSum, c.ageCount = 0, 0, 0
	c.windowStart = now
}

// walk moves the delay by d, clamped to [min, max], counting effective
// steps in the NIC statistics.
func (c *feedbackCoalescer) walk(d sim.Time) {
	next := c.delay + d
	if next < c.min {
		next = c.min
	}
	if next > c.max {
		next = c.max
	}
	if next != c.delay {
		c.delay = next
		c.q.nic.Stats.FeedbackSteps++
		c.q.nic.tr.Event(c.q.nic.eng.Now(), trace.EvCoalesceWalk, int64(next))
		return
	}
	c.q.nic.Stats.FeedbackClamps++
	c.q.nic.tr.Event(c.q.nic.eng.Now(), trace.EvFeedbackClamp, int64(next))
}

// Delay exposes the current feedback delay for tests and diagnostics.
func (c *feedbackCoalescer) Delay() sim.Time { return c.delay }
