// Package wire defines the MXoE-style Open-MX wire format used by the
// simulated stack: an Ethernet frame carrying a fixed 32-byte Open-MX header
// and an optional payload.
//
// The format follows the structure of the Myrinet Express over Ethernet
// specification as described in the paper: eager small messages (single
// packet), eager medium fragments, and the rendezvous / pull-request /
// pull-reply / notify packets of the large-message protocol, plus acks. The
// one addition over stock MXoE is the latency-sensitive marker flag set by
// the sender driver, which is the paper's contribution (Section III-B).
//
// # Frame ownership and recycling
//
// Frames on the simulated wire are reference-counted and recycled through a
// per-cluster Pool so the per-packet hot path allocates nothing in steady
// state. The ownership rules are:
//
//   - Pool.Get returns a frame holding one reference, owned by the creator.
//   - Handing a frame to the wire (stack -> NIC -> fabric -> receiving NIC)
//     transfers that reference; whoever drops the frame (fabric fault
//     injection, a full receive ring) or finishes processing it (the
//     receive handler, after the protocol effect ran) calls Release.
//   - A holder that needs the frame beyond the transfer it initiated — the
//     reliable channel retaining packets for retransmission, fabric
//     duplicate delivery — takes an extra reference with Ref and Releases
//     it when done.
//   - Release returns the frame to the pool it came from when the count
//     reaches zero, so cross-node flows are safe regardless of which node
//     releases last.
//
// Frames built with NewFrame (tests, callers outside a cluster) have no
// pool; Ref/Release on them are no-ops and the GC reclaims them as usual.
// Frame payloads alias the sender's buffer (frames never own payload
// memory), which is also why size-only simulation carries PayloadLen with a
// nil Payload.
package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// EthernetHeaderLen is the classic dst+src+type framing length.
const EthernetHeaderLen = 14

// HeaderLen is the fixed Open-MX header size carried inside the MTU.
const HeaderLen = 32

// Version is the wire protocol version this package implements.
const Version = 1

// PacketType enumerates the Open-MX packet kinds.
type PacketType uint8

const (
	// TypeInvalid marks an intentionally malformed packet (used by the
	// interrupt-overhead microbenchmark: dropped immediately on receive).
	TypeInvalid PacketType = iota
	// TypeTiny is an eager message up to 32 bytes (data inline with event).
	TypeTiny
	// TypeSmall is an eager message up to 128 bytes, one packet.
	TypeSmall
	// TypeMediumFrag is one fragment of an eager message up to 32 KiB.
	TypeMediumFrag
	// TypeRendezvous announces a large message (> 32 KiB).
	TypeRendezvous
	// TypePullRequest asks the sender for a block of up to 32 fragments.
	TypePullRequest
	// TypePullReply carries one fragment of pulled data.
	TypePullReply
	// TypeNotify tells the sender the pull completed.
	TypeNotify
	// TypeAck acknowledges received eager messages (cumulative).
	TypeAck
	typeCount
)

var typeNames = [...]string{
	"invalid", "tiny", "small", "medium-frag", "rendezvous", "pull-request",
	"pull-reply", "notify", "ack",
}

func (t PacketType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a defined packet type.
func (t PacketType) Valid() bool { return t > TypeInvalid && t < typeCount }

// Header flags.
const (
	// FlagLatencySensitive is the paper's marker: the sender driver sets it
	// on packets the NIC should interrupt for as soon as their DMA
	// completes (small messages, last medium fragment, rendezvous, pull
	// requests, last pull reply of a block, notify).
	FlagLatencySensitive uint8 = 1 << 0
	// FlagLastFragment marks the final fragment of a medium message or the
	// final reply of a pull block (informational; marking policy decides
	// whether it also carries FlagLatencySensitive).
	FlagLastFragment uint8 = 1 << 1
)

// Header is the fixed-size Open-MX packet header.
//
// Frames travel as structs; the layout below is the on-wire encoding
// whose size HeaderLen charges (32 bytes, big-endian):
//
//	0     version
//	1     type
//	2     flags
//	3     src endpoint
//	4     dst endpoint
//	5     reserved
//	6-7   payload length
//	8-11  sequence number (per-channel, eager reliability)
//	12-15 message id
//	16-23 match information (MX 64-bit tag)
//	24-27 aux (message total length, pull offset, or cumulative ack seq)
//	28-29 fragment / block index
//	30-31 fragment count / block fragment count
type Header struct {
	Version   uint8
	Type      PacketType
	Flags     uint8
	SrcEP     uint8
	DstEP     uint8
	Length    uint16
	Seq       uint32
	MsgID     uint32
	Match     uint64
	Aux       uint32
	FragIndex uint16
	FragCount uint16
}

// Marked reports whether the latency-sensitive flag is set.
func (h *Header) Marked() bool { return h.Flags&FlagLatencySensitive != 0 }

// Errors returned by Validate.
var (
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: invalid packet type")
)

// Validate checks version and type. The receive handler drops packets that
// fail validation (this is the path the overhead microbenchmark exercises).
func (h *Header) Validate() error {
	if h.Version != Version {
		return ErrBadVersion
	}
	if !h.Type.Valid() {
		return ErrBadType
	}
	return nil
}

// MAC is an Ethernet hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// NodeMAC returns a deterministic locally-administered MAC for node i.
func NodeMAC(i int) MAC {
	return MAC{0x02, 0x4d, 0x58, byte(i >> 16), byte(i >> 8), byte(i)}
}

// NodeIndex recovers the node index NodeMAC encoded in the last three
// bytes (fault-scenario hooks key per-node state by it).
func (m MAC) NodeIndex() int {
	return int(m[3])<<16 | int(m[4])<<8 | int(m[5])
}

// Frame is one Ethernet frame in flight. Payload may be nil for size-only
// simulation (large benchmark runs), in which case PayloadLen carries the
// logical size; when Payload is non-nil the two agree.
//
// Frames obtained from a Pool are reference-counted; see the package
// comment for the ownership rules.
type Frame struct {
	Src, Dst   MAC
	Header     Header
	Payload    []byte
	PayloadLen int

	pool *Pool
	refs int32
}

// Ref takes an additional reference on a pooled frame. It is a no-op for
// frames built outside a pool. The count is manipulated atomically: under
// the sharded engine a frame's sender (retransmission retain) and receiver
// (delivery release) may live on different shards.
//
//omxlint:hotpath
func (f *Frame) Ref() {
	if f.pool != nil {
		atomic.AddInt32(&f.refs, 1) //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
	}
}

// Release drops one reference; the last release returns the frame to its
// pool. Releasing a frame built outside a pool is a no-op, so protocol code
// may release unconditionally.
//
//omxlint:hotpath
func (f *Frame) Release() {
	if f.pool == nil {
		return
	}
	n := atomic.AddInt32(&f.refs, -1) //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("wire: frame released more times than referenced")
	}
	f.Payload = nil // never pin sender buffers from the free list
	f.pool.put(f)
}

// Pool is a frame free list. Each cluster owns one, shared by every stack,
// NIC, and the switch, so a frame allocated on the sending node is recycled
// when the receiving node releases it. A pool is single-threaded by default
// (the cluster's one engine serializes access, and concurrent sweeps use
// one pool per cluster); a cluster sharding across engines calls Share once
// at build time to put the free list behind a mutex.
type Pool struct {
	shared bool
	mu     sync.Mutex //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
	free   []*Frame
	made   int // frames allocated, counted under mu
}

// NewPool returns an empty frame pool.
func NewPool() *Pool { return &Pool{} }

// Share makes the pool safe for concurrent Get/Release from multiple shard
// goroutines. Call before first use; there is no way back.
func (p *Pool) Share() { p.shared = true }

// take pops a free frame, or returns nil, counting the frame the caller
// then allocates, when the list is empty.
//
//omxlint:hotpath
func (p *Pool) take() *Frame {
	if p.shared {
		p.mu.Lock() //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
		defer p.mu.Unlock()
	}
	n := len(p.free)
	if n == 0 {
		p.made++
		return nil
	}
	f := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return f
}

// put returns a dead frame to the free list.
//
//omxlint:hotpath
func (p *Pool) put(f *Frame) {
	if p.shared {
		p.mu.Lock() //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
		defer p.mu.Unlock()
	}
	//omxlint:allow hotpathalloc: free-list growth is amortized; the frame round trip is guarded at <= 1 alloc by AllocsPerRun
	p.free = append(p.free, f)
}

// Outstanding returns how many of the pool's frames are still referenced:
// those it has handed out and not had back. Read it while no engine runs.
func (p *Pool) Outstanding() int { return p.made - len(p.free) }

// Get returns a frame initialized exactly like NewFrame, holding one
// reference, recycling a free frame when available.
//
//omxlint:hotpath
func (p *Pool) Get(src, dst MAC, h Header, payload []byte, payloadLen int) *Frame {
	f := p.take()
	if f == nil {
		//omxlint:allow hotpathalloc: cold-path pool refill; steady state recycles (frame round trip guarded at <= 1 alloc)
		f = &Frame{pool: p}
	}
	if payload != nil {
		payloadLen = len(payload)
	}
	h.Version = Version
	h.Length = uint16(payloadLen)
	f.Src, f.Dst = src, dst
	f.Header = h
	f.Payload = payload
	f.PayloadLen = payloadLen
	atomic.StoreInt32(&f.refs, 1) //omxlint:allow goroutine: frame refcounts/pool cross shard goroutines under -par (Share contract, audited in PR 6; race-checked in CI)
	return f
}

// Clone returns a pooled copy of f holding one reference (used by
// retransmission, which keeps the original retained while a copy travels).
func (p *Pool) Clone(f *Frame) *Frame {
	return p.Get(f.Src, f.Dst, f.Header, f.Payload, f.PayloadLen)
}

// NewFrame builds a frame and keeps Length/PayloadLen consistent.
func NewFrame(src, dst MAC, h Header, payload []byte, payloadLen int) *Frame {
	if payload != nil {
		payloadLen = len(payload)
	}
	h.Version = Version
	h.Length = uint16(payloadLen)
	return &Frame{Src: src, Dst: dst, Header: h, Payload: payload, PayloadLen: payloadLen}
}

// WireBytes is the frame's size on the wire: Ethernet framing + Open-MX
// header + payload. (Preamble/IFG overhead is charged by the link model.)
func (f *Frame) WireBytes() int {
	n := EthernetHeaderLen + HeaderLen + f.PayloadLen
	if n < 60 { // Ethernet minimum frame (without FCS)
		n = 60
	}
	return n
}

// Marked reports whether the frame carries the latency-sensitive marker.
func (f *Frame) Marked() bool { return f.Header.Marked() }
