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
	// maxCwndPkts caps the congestion window.
	maxCwndPkts = 512
	// ptoMin / ptoMax clamp the computed PTO. RFC 9002 uses timer
	// granularity (~1ms), not TCP's conservative RTO floor — fast tail
	// recovery is a genuine QUIC advantage.
	ptoMin = 2 * time.Millisecond
	ptoMax = 60 * time.Second
	// probeTimeout is the minimum virtual time a connection keeps
	// probing before MaxPTOs consecutive expirations may fail it.
	// Failure requires both conditions: with a tiny SRTT the PTO base is
	// ptoMin, so MaxPTOs backoffs alone can exhaust in well under a
	// second — without this floor a multi-second blackout would kill
	// every active connection instead of being ridden out.
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
	// Pools, when non-nil, supplies the per-universe record arena shared
	// by every endpoint of one scheduler goroutine. Nil gets a private
	// one.
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
	if c.Pools == nil {
		c.Pools = &Pools{}
	}
	return c
}

// Errors reported through callbacks.
var (
	ErrTimeout   = errors.New("quicsim: connection timed out")
	ErrAborted   = errors.New("quicsim: connection aborted")
	ErrClosed    = errors.New("quicsim: connection closed by peer")
	ErrHandshake = errors.New("quicsim: handshake failed")
)

// --- frames ---

type frame interface {
	wireSize() int
	ackEliciting() bool
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

func (f *clientHelloFrame) wireSize() int    { return sizeClientHello }
func (*clientHelloFrame) ackEliciting() bool { return true }

type serverHelloFrame struct {
	resumed  bool
	newToken uint64
	// cid is the connection ID the server assigns; the client echoes
	// it in every subsequent packet, so packets from a previous
	// incarnation of the same 4-tuple are told apart.
	cid uint64
}

func (f *serverHelloFrame) wireSize() int    { return sizeServerHello }
func (*serverHelloFrame) ackEliciting() bool { return true }

type finishedFrame struct{}

func (finishedFrame) wireSize() int      { return sizeFinished }
func (finishedFrame) ackEliciting() bool { return true }

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

func (f *streamFrame) wireSize() int    { return streamFrameHeader + f.n }
func (*streamFrame) ackEliciting() bool { return true }

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

type ackFrame struct {
	ranges []pnRange // descending, most recent first
}

func (f *ackFrame) wireSize() int    { return sizeAckFrame + 4*len(f.ranges) }
func (*ackFrame) ackEliciting() bool { return false }

type closeFrame struct {
	err error
}

func (f *closeFrame) wireSize() int    { return sizeCloseFrame }
func (*closeFrame) ackEliciting() bool { return false }

// packet is the on-wire QUIC datagram payload.
//
// Packet structs are pooled: each is sent exactly once, receivers read
// it during delivery and retain nothing of it (copying only stream
// bytes that land beyond a gap), and the network recycles the struct via
// Release after the handler returns. A packet owns its stream bytes:
// transmit copies them from the sending streams into data, whether the
// packet is a first send, a loss retransmission or a probe, and Release
// returns them. The frames slice is shared with the sender's sentPacket
// record for retransmission and is therefore never recycled — except
// for ACK-only packets, which bypass loss recovery entirely and keep a
// private reusable ackFrame attached across pool round-trips.
type packet struct {
	pn     uint64
	frames []frame
	// data holds one entry per STREAM frame in frames, in frame order.
	data    []streamData
	zeroRTT bool // sent as 0-RTT (before handshake confirmation)
	// dcid is the connection ID of the sending connection (0 before the
	// handshake assigns one); receivers drop a mismatch as stale.
	dcid uint64
	// ackOnly marks frames as a private one-element slice holding a
	// private ackFrame, recycled together with the packet.
	ackOnly bool
	// pools routes Release back to the originating universe's free
	// lists. Release runs on that universe's scheduler goroutine.
	pools *Pools
}

func newPacket(pl *Pools) *packet {
	if p, ok := pl.packets.Get(); ok {
		return p
	}
	return &packet{pools: pl}
}

// newAckPacket returns a pooled packet carrying a single ACK frame with
// ranges snapshotted from rs; the attached ackFrame and its range slice
// are reused across pool round-trips.
func newAckPacket(pl *Pools, rs *rangeSet) *packet {
	p, ok := pl.ackPkts.Get()
	if !ok {
		p = &packet{ackOnly: true, frames: []frame{&ackFrame{}}, pools: pl}
	}
	af := p.frames[0].(*ackFrame)
	af.ranges = rs.snapshot(af.ranges[:0], 32)
	return p
}

// Release implements simnet.Releasable.
func (p *packet) Release() {
	p.pn = 0
	p.zeroRTT = false
	p.dcid = 0
	for _, d := range p.data {
		p.pools.payloads.Put(d.data)
	}
	clear(p.data)
	p.data = p.data[:0]
	if p.ackOnly {
		p.pools.ackPkts.Put(p)
		return
	}
	// The frames slice is shared with a sentPacket (or belongs to a
	// one-shot control packet); drop the reference, never reuse it.
	p.frames = nil
	p.pools.packets.Put(p)
}

func (p *packet) wireSize() int {
	n := packetOverhead
	for _, f := range p.frames {
		n += f.wireSize()
	}
	return n
}

func (p *packet) isAckEliciting() bool {
	for _, f := range p.frames {
		if f.ackEliciting() {
			return true
		}
	}
	return false
}

// ConnStats counts per-connection activity.
type ConnStats struct {
	PacketsSent         int64
	PacketsReceived     int64
	BytesSent           int64
	BytesDelivered      int64
	PacketsDeclaredLost int64
	PTOs                int64
	StreamsOpened       int64
	StreamsAccepted     int64
}
