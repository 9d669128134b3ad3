// Package tcpsim implements a miniature TCP over internal/simnet: 3-way
// handshake, MSS segmentation, cumulative ACKs, NewReno congestion control
// (slow start, congestion avoidance, fast retransmit/recovery with partial
// ACK handling), RTO per RFC 6298 with Karn's algorithm, and — crucially
// for this reproduction — strict in-order delivery to the application, so
// head-of-line blocking under loss is emergent rather than modeled.
package tcpsim

import (
	"errors"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/bytestream"
	"h3cdn/internal/cc"
	"h3cdn/internal/simnet"
	"h3cdn/internal/trace"
)

const (
	// headerSize is the wire overhead charged per segment (IPv4 20 +
	// TCP 20), in bytes.
	headerSize = 40
	// mss is the maximum segment payload size, untyped because it meets
	// both uint64 and float64 arithmetic.
	mss = 1460
)

// profile is TCP's congestion window and RTO numbers; DESIGN.md §4.28
// sets them beside QUIC's with a source for each.
var profile = cc.Profile{
	Segment:        mss,
	InitWindow:     10 * mss,               // RFC 6928
	MaxWindow:      512 * mss,              // stands in for the receive window
	CollapseWindow: mss,                    // RFC 5681's loss window
	FirstTimeout:   time.Second,            // kernel TCP's fixed SYN timer
	TimeoutFloor:   200 * time.Millisecond, // kernel TCP's RTO floor
	TimeoutCeiling: 60 * time.Second,
}

// Config tunes a TCP endpoint. The zero value selects the defaults noted
// on each field via (*Config).withDefaults.
type Config struct {
	// MaxRetries bounds consecutive retransmissions of the same
	// segment before the connection errors out. Default 8.
	MaxRetries int
	// Pools is the segment arena shared by every endpoint of one
	// scheduler goroutine; it outlives the universe. Required.
	Pools *Pools
	// Arena is the buffer arena for receive-side reassembly copies of
	// out-of-order data. Required.
	Arena *bufpool.Arena
	// Recovery, when non-nil, accumulates loss-recovery counters for
	// this endpoint (timeouts, retransmissions, blackout crossings).
	// Increments happen in scheduler context; the pointer is typically
	// shared by every client connection of one simulated probe.
	Recovery *simnet.RecoveryStats
	// Trace, when non-nil, receives connection-level events (SYN,
	// establishment, cwnd changes, RTO episodes, HOL stalls). Nil-safe:
	// every emit is a no-op on a nil tracer.
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	return c
}

// Errors reported through the close callback.
var (
	ErrTimeout = errors.New("tcpsim: connection timed out")
	ErrAborted = errors.New("tcpsim: connection aborted")
	ErrRefused = errors.New("tcpsim: connection refused")
)

type segFlags uint8

const (
	flagSYN segFlags = 1 << iota
	flagACK
	flagFIN
	flagRST
)

// segment is the on-wire TCP message. Seq/Ack are 64-bit logical stream
// offsets (no wraparound modeling). A FIN consumes one offset.
//
// Segments are pooled: each is sent exactly once (retransmissions build
// fresh segments), receivers read the payload during delivery (handing
// in-order bytes straight to the application, copying only what lands
// beyond a gap and is not an opaque run), and the network recycles the segment via Release after
// the handler returns. A data segment owns its payload, a pooled buffer
// the sender filled when it built the segment, unless it is an opaque
// run (bytestream.Opaque: no supplied byte in its range); Release
// returns an owned one.
type segment struct {
	flags   segFlags
	seq     uint64
	ack     uint64
	payload []byte
	// pools routes Release back to the originating universe's free list.
	// Release runs on that universe's scheduler goroutine.
	pools *Pools
}

func newSegment(pl *Pools) *segment {
	if s, ok := pl.segs.Get(); ok {
		return s
	}
	return &segment{pools: pl}
}

// Release implements simnet.Releasable, returning the payload buffer
// with the segment.
func (s *segment) Release() {
	pl := s.pools
	bytestream.Recycle(&pl.payloads, s.payload)
	*s = segment{pools: pl}
	pl.segs.Put(s)
}

func (s *segment) wireSize() int { return headerSize + len(s.payload) }

func (s *segment) end() uint64 {
	e := s.seq + uint64(len(s.payload))
	if s.flags&flagFIN != 0 {
		e++
	}
	return e
}
