// Package quicsim implements a miniature QUIC transport (RFC 9000/9002
// flavored) over internal/simnet: unique packet numbers with ACK ranges,
// packet-threshold and PTO-based loss detection, NewReno congestion
// control, a 1-RTT integrated handshake, session-token resumption with
// 0-RTT data, and — the property this reproduction leans on — multiple
// independent streams whose data is delivered per-stream in order but
// across streams without head-of-line blocking.
//
// Simplifications (documented in DESIGN.md): a single packet-number space
// (no separate Initial/Handshake/1-RTT spaces), no flow control windows,
// no connection migration, handshake messages as typed frames with
// realistic sizes rather than CRYPTO byte streams.
package quicsim

import (
	"errors"
	"time"

	"h3cdn/internal/bytestream"
	"h3cdn/internal/cc"
	"h3cdn/internal/simnet"
	"h3cdn/internal/trace"
)

// Wire overheads in bytes.
const (
	// packetOverhead charges IPv4 + UDP + QUIC short header + AEAD tag.
	packetOverhead = 54
	// maxPacketPayload is the frame budget per packet (QUIC's ~1200B
	// datagram minus headers).
	maxPacketPayload = 1200
	// streamFrameHeader approximates the STREAM frame header size.
	streamFrameHeader = 12

	sizeClientHello = 300
	sizeServerHello = 2900
	sizeFinished    = 36
	sizeAckFrame    = 25
	sizeCloseFrame  = 16
)

const (
	// probeTimeout is the minimum virtual time a connection keeps
	// probing before MaxPTOs consecutive expirations may fail it.
	// Failure requires both conditions: with a tiny SRTT the PTO base is
	// the profile's 2 ms floor, so MaxPTOs backoffs alone can exhaust in
	// well under a second — without this floor a multi-second blackout
	// would kill every active connection instead of being ridden out.
	probeTimeout = 15 * time.Second
	// reorderThreshold is the packet-number distance that declares a
	// packet lost (RFC 9002 kPacketThreshold).
	reorderThreshold = 3
)

// Config tunes a QUIC endpoint. The zero value selects defaults.
type Config struct {
	// InitCwndPkts is the initial congestion window in packets.
	// Default 10.
	InitCwndPkts int
	// PTOInit is the probe timeout before an RTT sample exists.
	// Default 1s.
	PTOInit time.Duration
	// MaxPTOs bounds consecutive probe timeouts before the connection
	// errors out. Default 8.
	MaxPTOs int
	// Pools is the record arena shared by every endpoint of one
	// scheduler goroutine; it outlives the universe. Required.
	Pools *Pools
	// Recovery, when non-nil, accumulates loss-recovery counters for
	// this endpoint (probe fires, declared losses, blackout crossings).
	// Increments happen in scheduler context; the pointer is typically
	// shared by every client connection of one simulated probe.
	Recovery *simnet.RecoveryStats
	// Trace, when non-nil, receives connection-level events (handshake,
	// packet tx/rx, ACK processing, PTO episodes, stream stalls).
	// Nil-safe: every emit is a no-op on a nil tracer.
	Trace *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.InitCwndPkts == 0 {
		c.InitCwndPkts = 10
	}
	if c.PTOInit == 0 {
		c.PTOInit = time.Second
	}
	if c.MaxPTOs == 0 {
		c.MaxPTOs = 8
	}
	return c
}

// profile is the connection's congestion window and PTO numbers, from the
// defaulted InitCwndPkts and PTOInit; DESIGN.md §4.28 sets them beside
// TCP's with a source for each.
func (c Config) profile() cc.Profile {
	return cc.Profile{
		Segment:        maxPacketPayload,
		InitWindow:     float64(c.InitCwndPkts * maxPacketPayload),
		MaxWindow:      512 * maxPacketPayload,
		CollapseWindow: 2 * maxPacketPayload, // RFC 9002 kMinimumWindow
		FirstTimeout:   c.PTOInit,
		TimeoutFloor:   2 * time.Millisecond, // RFC 9002 timer granularity, not TCP's floor
		TimeoutCeiling: 60 * time.Second,
	}
}

// Errors reported through callbacks.
var (
	ErrTimeout = errors.New("quicsim: connection timed out")
	ErrAborted = errors.New("quicsim: connection aborted")
)

// --- frames ---

// frame is an ack-eliciting, retransmittable frame: a packet's frames
// list holds nothing else. The ACK and CONNECTION_CLOSE a packet may
// carry are packet fields (packet.ack, packet.close).
type frame interface {
	wireSize() int
}

type clientHelloFrame struct {
	serverName string
	token      uint64 // 0 = none
	zeroRTT    bool
	// nonce distinguishes connection incarnations on a recycled
	// ephemeral port (the stand-in for the random client-chosen
	// connection ID in a real ClientHello). Dial stamps it with the
	// handshake start time: a port can host only one connection at a
	// time, so two incarnations on the same 4-tuple always differ.
	nonce uint64
}

func (f *clientHelloFrame) wireSize() int { return sizeClientHello }

type serverHelloFrame struct {
	resumed  bool
	newToken uint64
	// cid is the connection ID the server assigns; the client echoes
	// it in every subsequent packet, so packets from a previous
	// incarnation of the same 4-tuple are told apart.
	cid uint64
}

func (f *serverHelloFrame) wireSize() int { return sizeServerHello }

type finishedFrame struct{}

func (finishedFrame) wireSize() int { return sizeFinished }

// streamFrame is the sender's record of one STREAM frame: n bytes of
// stream s from off. It carries no bytes; the packet that transmits it
// copies them from the stream (Conn.fill).
type streamFrame struct {
	s   *Stream
	off uint64
	n   int
	fin bool
	// holds counts in-flight records (sentPacket or sendQ) referencing
	// this frame. A PTO probe copies frame pointers into a second record,
	// so the struct may only recycle when the count drains to zero — and
	// only through ACK retirement, never loss declaration (a declared
	// loss can be a reordering false positive whose wire copy is still in
	// flight; the hold it transferred to sendQ keeps the struct alive).
	holds int32
}

func (f *streamFrame) wireSize() int { return streamFrameHeader + f.n }

// streamData is a STREAM frame as its packet carries it, recorded with
// the packet's own copy of its bytes when the packet was transmitted.
// Receivers read only this, never the sender's streamFrame, which may
// have been recycled by the time a late copy arrives.
type streamData struct {
	id   uint64
	off  uint64
	data []byte
	fin  bool
}

// closeFrame is a CONNECTION_CLOSE with the error the peer reports (nil
// for a clean close). A close packet carries nothing else, and the three
// closes below are shared: nothing writes them.
type closeFrame struct {
	err error
}

var (
	closeClean   = &closeFrame{}
	closeAborted = &closeFrame{err: ErrAborted}
	closeTimeout = &closeFrame{err: ErrTimeout}
)

// ackSize is the wire size of an ACK frame with n ranges.
func ackSize(n int) int { return sizeAckFrame + 4*n }

// packet is the on-wire QUIC datagram payload: an optional ACK, an
// optional CONNECTION_CLOSE and the ack-eliciting frames, which a
// receiver handles in that order.
//
// Packet structs are pooled: each is sent exactly once, receivers read
// it during delivery and retain nothing of it (copying only stream
// bytes that land beyond a gap, unless they are an opaque run), and the
// network recycles the struct via Release after the handler returns. A
// packet owns its ACK ranges, reused across pool round-trips, and its
// stream bytes unless they are an opaque run (bytestream.Opaque: no
// supplied byte in the frame's range): transmit copies them from the
// sending streams into data, whether the packet is a first send, a loss
// retransmission or a probe, and Release returns the owned ones. The
// frames slice is shared with the sender's sentPacket record for
// retransmission and is therefore never recycled with the packet.
type packet struct {
	pn uint64
	// dcid is the connection ID of the sending connection (0 before the
	// handshake assigns one); receivers drop a mismatch as stale.
	dcid uint64
	// ack holds the ACK frame's ranges, descending, most recent first;
	// empty when the packet carries no ACK.
	ack []pnRange
	// ackBuf backs ack up to its length, so the usual ACK of a few
	// ranges allocates nothing beside the packet.
	ackBuf [4]pnRange
	// close, when non-nil, makes this a CONNECTION_CLOSE packet.
	close  *closeFrame
	frames []frame
	// data holds one entry per STREAM frame in frames, in frame order.
	data []streamData
	// pools routes Release back to the originating universe's free
	// lists. Release runs on that universe's scheduler goroutine.
	pools *Pools
}

func newPacket(pl *Pools) *packet {
	if p, ok := pl.packets.Get(); ok {
		return p
	}
	p := &packet{pools: pl}
	p.ack = p.ackBuf[:0]
	return p
}

// Release implements simnet.Releasable.
func (p *packet) Release() {
	for _, d := range p.data {
		bytestream.Recycle(&p.pools.payloads, d.data)
	}
	clear(p.data)
	// The frames slice is shared with a sentPacket; drop the reference,
	// never reuse it.
	*p = packet{ack: p.ack[:0], data: p.data[:0], pools: p.pools}
	p.pools.packets.Put(p)
}

func (p *packet) wireSize() int {
	n := packetOverhead
	if len(p.ack) > 0 {
		n += ackSize(len(p.ack))
	}
	if p.close != nil {
		n += sizeCloseFrame
	}
	for _, f := range p.frames {
		n += f.wireSize()
	}
	return n
}

// isAckEliciting reports whether p carries a frame the peer must
// acknowledge: any frame at all, since ACK and close are fields.
func (p *packet) isAckEliciting() bool { return len(p.frames) > 0 }
