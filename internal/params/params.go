// Package params centralizes every cost constant of the simulation model.
//
// The defaults are calibrated against the authors' testbed (two
// dual-socket quad-core Xeon E5345 hosts, Myri-10G NICs, MTU 1500, Open-MX
// 1.0.901) on the paper's *baseline* configurations: timeout coalescing at
// 75 us, and coalescing disabled. Three baseline figures match the paper
// at full scale:
//   - the Section IV-B2 receive overhead without coalescing, 965 ns per
//     packet;
//   - the small-message ping-pong with coalescing disabled, 0.10 of the
//     84 us coalesced time (Fig. 5; the paper has ~10 us against ~75 us);
//   - Table II's Timeout-75us row, 765 us and 13.0 interrupts per message
//     against 762 us and ~14.4.
//
// The Disabled columns of Tables I and II do not: 385k msg/s at 0 B
// against 252k, and 539.5 us against 705 us. The paper-fidelity item of
// ROADMAP.md tracks the gap. Everything else — the behaviour of the
// Open-MX and Stream coalescing strategies, NAS deltas, interrupt counts —
// is emergent from the model and is NOT individually tuned.
//
// All durations are virtual nanoseconds (sim.Time).
package params

import "openmxsim/internal/sim"

// Link models one full-duplex Ethernet port and the switch between hosts.
type Link struct {
	// BandwidthBps is the line rate in bits per second (10 Gb/s).
	BandwidthBps int64
	// PropagationDelay is the cable + PHY latency per hop.
	PropagationDelay sim.Time
	// SwitchLatency is the store-and-forward switch overhead added on top
	// of egress serialization.
	SwitchLatency sim.Time
	// JitterSD is the standard deviation of per-frame timing noise. It is
	// what limits the Stream-coalescing deferral success rate (Table III).
	JitterSD sim.Time
	// FrameOverheadBytes covers preamble + inter-frame gap + FCS, charged
	// on the wire in addition to the frame bytes.
	FrameOverheadBytes int
}

// SerializationTime returns the wire occupancy of n bytes.
func (l Link) SerializationTime(n int) sim.Time {
	bits := int64(n+l.FrameOverheadBytes) * 8
	return sim.Time(bits * int64(sim.Second) / l.BandwidthBps)
}

// NIC models the network interface: receive firmware, the DMA engine that
// deposits packets into host memory, and interrupt signalling.
type NIC struct {
	// FirmwareRxPacket is the per-packet firmware processing time
	// (descriptor creation, marker inspection).
	FirmwareRxPacket sim.Time
	// FirmwareStreamExtra is the additional per-packet firmware work of the
	// Stream-coalescing strategy (the paper notes it "requires more work in
	// the NIC and may thus limit performance under high traffic").
	FirmwareStreamExtra sim.Time
	// DMASetup is the fixed cost to start one write DMA.
	DMASetup sim.Time
	// DMABandwidthBps is the PCIe write throughput for payload DMA.
	DMABandwidthBps int64
	// MSIDelivery is the time for the interrupt message to reach the core.
	MSIDelivery sim.Time
	// TxSetup and TxBandwidthBps model the transmit-side DMA read.
	TxSetup        sim.Time
	TxBandwidthBps int64
	// RxRingEntries is the completion-ring capacity; overflow drops frames.
	RxRingEntries int
	// AdaptiveMin/Max bound the adaptive strategy's delay range and
	// AdaptiveWindow is its rate-estimation window (Section VI extension).
	// The feedback strategy's delay walk is clamped to the same range.
	AdaptiveMin    sim.Time
	AdaptiveMax    sim.Time
	AdaptiveWindow sim.Time
	// FeedbackWindow is the sliding window over which the feedback
	// strategy measures its own interrupt rate and delivery latency;
	// FeedbackStep is how far it walks the delay per control decision.
	FeedbackWindow sim.Time
	FeedbackStep   sim.Time
	// FeedbackTargetIntrPerSec and FeedbackMaxLatency are the default goal
	// when the tuner supplies none: hold the interrupt rate at the target
	// without letting mean delivery latency exceed the budget.
	FeedbackTargetIntrPerSec float64
	FeedbackMaxLatency       sim.Time
}

// DMATime returns the DMA duration for a frame of n payload bytes.
func (n_ NIC) DMATime(n int) sim.Time {
	bits := int64(n) * 8
	return n_.DMASetup + sim.Time(bits*int64(sim.Second)/n_.DMABandwidthBps)
}

// TxTime returns the host-to-NIC DMA read duration for n bytes.
func (n_ NIC) TxTime(n int) sim.Time {
	bits := int64(n) * 8
	return n_.TxSetup + sim.Time(bits*int64(sim.Second)/n_.TxBandwidthBps)
}

// Host models the processor cores and the kernel receive stack.
type Host struct {
	// Cores is the core count per node (paper: dual-socket quad-core = 8).
	Cores int
	// IRQEntry is the hardware + software cost of taking one interrupt
	// (vector dispatch, ISR prologue, NAPI scheduling).
	IRQEntry sim.Time
	// NAPIPollEnd is the cost to finish a poll cycle and re-enable IRQs.
	NAPIPollEnd sim.Time
	// NAPIBudget is the Linux NAPI packet budget per poll invocation.
	NAPIBudget int
	// RxHandlerPacket is the per-packet cost of the low-level receive stack
	// plus the Open-MX receive handler's common path (the 965/774 ns
	// microbenchmark of Section IV-B2 measures this path).
	RxHandlerPacket sim.Time
	// RxDropPacket is the cost to drop an invalid packet (overhead bench).
	RxDropPacket sim.Time
	// CacheBounce is the cost of pulling the shared descriptor/ring cache
	// lines from another core, paid when the processing core changes.
	CacheBounce sim.Time
	// SleepEnabled lets idle cores enter C1E.
	SleepEnabled bool
	// IdleSleepDelay is how long a core must be idle before sleeping.
	IdleSleepDelay sim.Time
	// WakeupLatency is the C1E exit penalty paid before an interrupt is
	// serviced on a sleeping core ("several microseconds" in the paper).
	WakeupLatency sim.Time
	// CopyBandwidthBps is the kernel memcpy rate for eager payload moving
	// into the contiguous event ring, when the processing core is warm
	// (it handled the previous packet too).
	CopyBandwidthBps int64
	// ColdCopyBandwidthBps applies when the handling core just changed:
	// the channel descriptors, ring lines and destination buffer must be
	// pulled from the previous core's cache. Scattered (round-robin,
	// per-packet) interrupts pay this on every packet — the paper's
	// cache-line bounce effect (Sections III-B, IV-B).
	ColdCopyBandwidthBps int64
	// PullCopyBandwidthBps and PullColdCopyBandwidthBps are the same pair
	// for pull replies, which deposit into scattered pinned user pages
	// rather than the ring (slower than the ring copy).
	PullCopyBandwidthBps     int64
	PullColdCopyBandwidthBps int64
}

// CopyTime returns the duration of a warm host memcpy of n bytes.
func (h Host) CopyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return sim.Time(bits * int64(sim.Second) / h.CopyBandwidthBps)
}

// ColdCopyTime returns the memcpy duration on a core that just took over
// the receive path.
func (h Host) ColdCopyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return sim.Time(bits * int64(sim.Second) / h.ColdCopyBandwidthBps)
}

// Proto holds Open-MX protocol constants (wire-visible behaviour).
type Proto struct {
	// MTU is the Ethernet payload limit; Open-MX headers live inside it for
	// eager fragments. 1500 in the paper's evaluation.
	MTU int
	// SmallMax is the largest single-packet eager message (128 B).
	SmallMax int
	// MediumMax is the largest fragmented eager message (32 KiB).
	MediumMax int
	// PullBlockFrags is the number of fragments requested by one pull
	// request (32 in the MXoE wire spec).
	PullBlockFrags int
	// PullParallel is how many pull requests the driver keeps in flight
	// ("the driver tries to pipeline 4 requests at the same time").
	PullParallel int
	// PullReplyPayload is the data carried by one pull reply. The paper's
	// packet accounting (5 requests for 234 KiB) implies a full MTU of data
	// per reply, headers not counted against it.
	PullReplyPayload int
	// AckInterval: an explicit ack is returned every AckInterval eager
	// messages (the paper observes acks are "up to 20 % of the traffic").
	AckInterval int
	// AckDelay flushes a pending ack after this time even if the interval
	// was not reached.
	AckDelay sim.Time
	// ResendTimeout triggers retransmission of unacked sends. It is the
	// base of the exponential backoff: the k-th consecutive expiry of the
	// same timer waits ResendTimeout<<k (plus deterministic jitter),
	// capped at ResendBackoffMax.
	ResendTimeout sim.Time
	// ResendBackoffMax caps the backed-off retry interval. Zero or
	// negative disables the cap (pure exponential growth up to
	// MaxResends attempts).
	ResendBackoffMax sim.Time
	// MaxResends bounds consecutive unacknowledged retries of each
	// reliability timer — the channel resend timer and the per-block pull
	// retry timer. Once exhausted the operation gives up: the channel
	// fails, outstanding handles complete with ErrGiveUp, and
	// Stats.GiveUps is incremented, instead of retransmitting forever into
	// a dead link. Zero or negative restores the historic retry-forever
	// behaviour.
	MaxResends int
	// SendWindow is the per-peer limit on outstanding unacked packets.
	SendWindow int
	// MediumInflight caps concurrent medium messages per channel (the
	// endpoint's send ring has a bounded number of medium slots); it sets
	// the pacing-chain overlap that shapes the medium stream rate.
	MediumInflight int
	// EventRingEntries is the per-endpoint shared event ring capacity.
	EventRingEntries int
}

// EagerFragPayload returns the per-fragment payload for eager messages: the
// 32-byte Open-MX header is carried inside the MTU (32768-byte mediums split
// into 23 fragments at MTU 1500, matching Table III).
func (p Proto) EagerFragPayload(headerLen int) int {
	return p.MTU - headerLen
}

// Driver models the Open-MX kernel driver costs beyond the common handler.
type Driver struct {
	// TxPacket is the per-packet send cost in the driver (descriptor setup,
	// queueing to the NIC).
	TxPacket sim.Time
	// TxFree is the per-packet cost of reaping a transmit completion in
	// the NAPI poll (skb free, ring advance).
	TxFree sim.Time
	// MediumFragGap is the pacing between successive medium fragments of
	// one endpoint (send-ring slot handling and doorbells): ~3 us/fragment
	// reproduces the paper's 14.5k msg/s medium rate and the inter-packet
	// gaps that make Stream coalescing's deferral a genuine race.
	MediumFragGap sim.Time
	// MediumFragGapJitterDiv sets pacing noise: sd = gap/div (0 disables).
	MediumFragGapJitterDiv int64
	// RxEager is the extra per-fragment cost of eager reassembly
	// bookkeeping (beyond Host.RxHandlerPacket and the payload copy).
	RxEager sim.Time
	// RxPull is the per-reply cost of the pull engine bookkeeping.
	RxPull sim.Time
	// PullRequestCost is the cost to build and send one pull request.
	PullRequestCost sim.Time
	// EventWrite is the cost to post one event into the user ring.
	EventWrite sim.Time
	// AckCost is the cost to generate or process one ack.
	AckCost sim.Time
}

// Lib models the user-space MX library.
type Lib struct {
	// SendPost is the fixed cost of posting a send from the application.
	SendPost sim.Time
	// RecvPost is the fixed cost of posting a receive.
	RecvPost sim.Time
	// Match is the cost of matching one event against the posted queue.
	Match sim.Time
	// EventPop is the per-event cost of reading the shared ring.
	EventPop sim.Time
	// Progress is the fixed cost of one progression/poll loop iteration,
	// paid once per pickup burst.
	Progress sim.Time
	// PerMessage is the per-message completion cost in the library and the
	// middleware above it (request tracking, MPI envelope handling).
	PerMessage sim.Time
	// FragEvent is the per-fragment reassembly bookkeeping cost in the
	// library (Open-MX mediums are reassembled in user space).
	FragEvent sim.Time
	// CopyBandwidthBps is the user-space copy rate (unexpected-queue and
	// eager delivery copies).
	CopyBandwidthBps int64
	// BusyPoll: the application spins for completions (cores never sleep
	// while a rank is waiting). This is how Open MPI drives MX.
	BusyPoll bool
	// ShmLatency is the fixed cost of the intra-node shared-memory path
	// (Open-MX delivers same-host messages without touching the NIC).
	ShmLatency sim.Time
}

// CopyTime returns the duration of a user-space copy of n bytes.
func (l Lib) CopyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	bits := int64(n) * 8
	return sim.Time(bits * int64(sim.Second) / l.CopyBandwidthBps)
}

// Params aggregates the full model.
type Params struct {
	Link   Link
	NIC    NIC
	Host   Host
	Proto  Proto
	Driver Driver
	Lib    Lib
}

// Default returns the calibrated paper-platform parameters.
func Default() *Params {
	return &Params{
		Link: Link{
			BandwidthBps:       10_000_000_000, // Myri-10G in Ethernet mode
			PropagationDelay:   200,
			SwitchLatency:      450,
			JitterSD:           25,
			FrameOverheadBytes: 24, // preamble 8 + FCS 4 + IFG 12
		},
		NIC: NIC{
			FirmwareRxPacket:    150,
			FirmwareStreamExtra: 60,
			DMASetup:            350,
			DMABandwidthBps:     16_000_000_000, // PCIe x8 effective
			MSIDelivery:         250,
			TxSetup:             300,
			TxBandwidthBps:      16_000_000_000,
			RxRingEntries:       4096,
			AdaptiveMin:         5 * sim.Microsecond,
			AdaptiveMax:         100 * sim.Microsecond,
			AdaptiveWindow:      200 * sim.Microsecond,
			FeedbackWindow:      200 * sim.Microsecond,
			FeedbackStep:        5 * sim.Microsecond,

			FeedbackTargetIntrPerSec: 20_000,
			FeedbackMaxLatency:       40 * sim.Microsecond, // ~half the worst fig5 latency cost
		},
		Host: Host{
			Cores:                    8,
			IRQEntry:                 150,
			NAPIPollEnd:              85,
			NAPIBudget:               64,
			RxHandlerPacket:          480,
			RxDropPacket:             690,
			CacheBounce:              40,
			SleepEnabled:             true,
			IdleSleepDelay:           1200,
			WakeupLatency:            3200,
			CopyBandwidthBps:         7_200_000_000, // ~0.9 GB/s warm ring copy
			ColdCopyBandwidthBps:     4_400_000_000, // ~0.55 GB/s after a core switch
			PullCopyBandwidthBps:     4_800_000_000, // ~0.6 GB/s into pinned user pages
			PullColdCopyBandwidthBps: 3_000_000_000, // ~0.38 GB/s cold
		},
		Proto: Proto{
			MTU:              1500,
			SmallMax:         128,
			MediumMax:        32 * 1024,
			PullBlockFrags:   32,
			PullParallel:     4,
			PullReplyPayload: 1500,
			AckInterval:      4,
			AckDelay:         50 * sim.Microsecond,
			ResendTimeout:    10 * sim.Millisecond,
			ResendBackoffMax: 100 * sim.Millisecond,
			MaxResends:       8,
			SendWindow:       128,
			MediumInflight:   2,
			EventRingEntries: 1024,
		},
		Driver: Driver{
			TxPacket:               350,
			TxFree:                 260,
			MediumFragGap:          6500,
			MediumFragGapJitterDiv: 2,
			RxEager:                160,
			RxPull:                 140,
			PullRequestCost:        400,
			EventWrite:             170,
			AckCost:                420,
		},
		Lib: Lib{
			SendPost:         420,
			RecvPost:         260,
			Match:            140,
			EventPop:         230,
			Progress:         180,
			PerMessage:       1600,
			FragEvent:        150,
			CopyBandwidthBps: 12_800_000_000, // ~1.6 GB/s user memcpy
			BusyPoll:         true,
			ShmLatency:       400,
		},
	}
}

// Clone returns a deep copy (Params contains only value fields).
func (p *Params) Clone() *Params {
	c := *p
	return &c
}
