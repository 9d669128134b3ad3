// Package trace is the simulator's qlog-style observability layer: a
// per-visit, per-connection event tracer with typed records (no
// interface{} boxing), a buffer that keeps every event of a visit, and a
// nil/disabled fast path that costs one pointer compare and zero
// allocations.
//
// Every layer of the stack emits into one Tracer: simnet (packet
// send/arrive/drop and the impairment layer's burst/outage/reorder
// decisions), tcpsim (SYN/establishment, cwnd changes, fast
// retransmits, RTO episodes, receive-side HOL stalls), tlssim
// (handshake flights, ticket issue/resume), quicsim (packet tx/rx, ACK
// ranges, PTO episodes, 0-RTT accept/reject, per-stream stalls),
// httpsim (stream open/headers/close), and the browser (fetch
// start/retry/done, preload hits, Alt-Svc learning).
//
// A Tracer is single-goroutine like the scheduler that drives it: one
// tracer per shard, shared by every host in that shard's universe.
// Emits outside a BeginVisit/EndVisit window (e.g. the warm pass) are
// discarded by the same cheap active check, so recorded traces cover
// exactly the measured visits. A visit's trace is delivered whole or
// not at all: one that outgrows the buffer's ceiling fails.
//
// All emit methods are safe on a nil *Tracer — instrumented code calls
// them unconditionally with scalar or pre-existing string arguments, so
// a disabled tracer adds zero allocations to the visit hot path
// (enforced by BenchmarkRunVisitTraceDisabled in benchgate).
package trace

import (
	"fmt"
	"time"
)

// Kind identifies an event type. Values are stable within a build but
// not across versions; serialized qlog output uses names, not codes.
type Kind uint8

// Event kinds, grouped by emitting layer. The A/B/C scalar fields and
// S1/S2 string fields are interpreted per kind as documented here and
// serialized under those names by the qlog writer.
const (
	_ Kind = iota // the zero Kind names no event

	// simnet. S1=src, S2=dst, A=size, B=srcPort<<16|dstPort.
	KindPacketSent
	KindPacketArrived
	KindPacketDropped // C = drop cause (Drop* constants)
	KindPacketDelayed // C = extra delay ns (jitter and/or reordering)
	KindLinkEpoch     // A=epoch, B=capacity bps, C=queued packets (trace-driven link transition)

	// tcpsim. Conn is the connection's trace id.
	KindTCPSynSent
	KindTCPEstablished    // A=1 client side, 0 server side
	KindTCPCwndChange     // A=cwnd, B=ssthresh, C=cause (Cwnd* constants)
	KindTCPFastRetransmit // A=seq of the retransmitted segment
	KindTCPRTOFire        // A=consecutive timeouts, B=rto ns
	KindTCPConnFail       // S1=error
	KindTCPHolStart       // A=buffered out-of-order bytes
	KindTCPHolEnd         // B=stall duration ns

	// tlssim. Conn is shared with the carrying TCP connection.
	KindTLSClientHello   // A=version (12|13), B=1 resuming, C=1 early data
	KindTLSServerFlight  // A=version, B=1 resumption accepted
	KindTLSTicketIssued  // A=ticket id
	KindTLSHandshakeDone // A=1 client side, B=1 resumed, C=1 early data

	// quicsim.
	KindQUICHandshakeStart // A=1 resuming, B=1 attempting 0-RTT
	KindQUICPacketSent     // A=packet number, B=size
	KindQUICPacketRecv     // A=packet number, B=1 duplicate
	KindQUICAck            // A=largest acked, B=ack ranges, C=newly lost
	KindQUICPacketLost     // A=packet number
	KindQUICPTOFire        // A=consecutive PTOs
	KindQUICZeroRTT        // A=1 accepted, 0 rejected (server decision)
	KindQUICHandshakeDone  // A=1 client side, B=1 resumed, C=1 0-RTT
	KindQUICConnFail       // S1=error
	KindQUICStallStart     // A=stream id, B=buffered out-of-order bytes
	KindQUICStallEnd       // A=stream id, B=stall duration ns

	// httpsim (client side).
	KindHTTPStreamOpen  // A=stream id, S1=host, S2=path
	KindHTTPHeaders     // A=stream id, B=status, C=body size
	KindHTTPStreamClose // A=stream id
	KindHTTPStreamFail  // A=stream id, S1=error

	// browser. A=fetch sequence number within the visit.
	KindFetchStart // S1=host, S2=path
	KindFetchSent  // Conn=carrying connection
	KindFetchDone  // B=status, C=body size
	KindFetchRetry // B=attempt number, S1=error
	KindFetchFail  // S1=error
	KindPreloadHit // S1=host (H3 chosen from the preload list)
	KindAltSvc     // S1=host (h3 alternative learned)
	KindPreconnect // S1=host (speculative H3 dial after Alt-Svc)

	kindCount // sentinel
)

// Packet-drop causes (KindPacketDropped C field).
const (
	DropFilter int64 = iota + 1
	DropQueue
	DropLoss   // ambient i.i.d. loss
	DropBurst  // Gilbert–Elliott bad-state loss
	DropOutage // scheduled outage window
)

// Cwnd-change causes (KindTCPCwndChange C field).
const (
	CwndFastRecovery int64 = iota + 1
	CwndRecoveryExit
	CwndRTOCollapse
)

// Event is one trace record. Scalar fields are interpreted per Kind
// (see the Kind constants); unused fields are zero. S1/S2 reference
// caller-owned strings (hostnames, paths, static error text) — string
// assignment does not allocate.
type Event struct {
	At   time.Duration // virtual time of the event
	Kind Kind
	Conn uint32 // connection trace id, 0 when not connection-scoped
	A    int64
	B    int64
	C    int64
	S1   string
	S2   string
}

// VisitRecord is what the sink receives at EndVisit: the visit window
// and every event captured inside it, in emission order. Events aliases
// tracer-owned storage and is only valid during the sink call.
type VisitRecord struct {
	Site   string
	Start  time.Duration // virtual time of BeginVisit
	PLT    time.Duration // page load time; visit window is [Start, Start+PLT]
	Events []Event
}

// Sink consumes one visit's trace when the visit ends.
type Sink func(*VisitRecord)

// maxVisitEvents is the most events one visit may emit, about 18 times
// the heaviest visit measured (a 192-page lossy campaign's, 57 234
// events). A visit past it fails at EndVisit, so a runaway visit costs
// bounded memory (~75 MB at 72 B/event) instead of a partial trace.
const maxVisitEvents = 1 << 20

// Tracer keeps every event of the open visit in a buffer that grows by
// append and is reused across visits, so a shard's tracer settles at its
// heaviest visit's size.
type Tracer struct {
	buf    []Event
	limit  int  // events one visit may record (maxVisitEvents)
	over   bool // the open visit emitted past limit
	active bool

	site  string
	start time.Duration

	sink Sink

	nextConn uint32
}

// New returns a Tracer whose buffer starts with room for capacity
// events, delivering finished visits to sink.
func New(capacity int, sink Sink) *Tracer {
	return &Tracer{buf: make([]Event, 0, max(capacity, 0)), limit: maxVisitEvents, sink: sink}
}

// ConnID allocates the next connection trace id. Ids are assigned in
// dial/accept order under the deterministic scheduler, so they are
// stable across runs and worker counts. A nil tracer returns 0 (the
// "untraced" id).
func (t *Tracer) ConnID() uint32 {
	if t == nil {
		return 0
	}
	t.nextConn++
	return t.nextConn
}

// BeginVisit opens a visit window at virtual time now: the buffer is
// emptied and subsequent emits are recorded until EndVisit.
func (t *Tracer) BeginVisit(site string, now time.Duration) {
	if t == nil {
		return
	}
	t.buf, t.over = t.buf[:0], false
	t.site, t.start = site, now
	t.active = true
}

// EndVisit closes the visit window and hands every captured event to
// the sink, in emission order. A visit that emitted more than the
// tracer's ceiling delivers nothing and returns an error instead.
func (t *Tracer) EndVisit(plt time.Duration) error {
	if t == nil || !t.active {
		return nil
	}
	t.active = false
	if t.over {
		return fmt.Errorf("trace: visit %s emitted more than %d events", t.site, t.limit)
	}
	if t.sink != nil {
		t.sink(&VisitRecord{Site: t.site, Start: t.start, PLT: plt, Events: t.buf})
	}
	return nil
}

// Abort closes the visit window without delivering anything (failed
// visits are excluded from datasets, so their traces are too).
func (t *Tracer) Abort() {
	if t == nil {
		return
	}
	t.active = false
}

// emit appends one event; past the ceiling it marks the visit failed.
func (t *Tracer) emit(at time.Duration, k Kind, conn uint32, a, b, c int64, s1, s2 string) {
	if t == nil || !t.active {
		return
	}
	if len(t.buf) == t.limit {
		t.over = true
		return
	}
	t.buf = append(t.buf, Event{At: at, Kind: k, Conn: conn, A: a, B: b, C: c, S1: s1, S2: s2})
}

// --- simnet ---

func ports(srcPort, dstPort uint16) int64 { return int64(srcPort)<<16 | int64(dstPort) }

// PacketSent records a transmission attempt entering the network.
func (t *Tracer) PacketSent(at time.Duration, src, dst string, srcPort, dstPort uint16, size int) {
	t.emit(at, KindPacketSent, 0, int64(size), ports(srcPort, dstPort), 0, src, dst)
}

// PacketArrived records a delivery reaching its destination handler.
func (t *Tracer) PacketArrived(at time.Duration, src, dst string, srcPort, dstPort uint16, size int) {
	t.emit(at, KindPacketArrived, 0, int64(size), ports(srcPort, dstPort), 0, src, dst)
}

// PacketDropped records a drop with its cause (Drop* constants).
func (t *Tracer) PacketDropped(at time.Duration, src, dst string, srcPort, dstPort uint16, size int, cause int64) {
	t.emit(at, KindPacketDropped, 0, int64(size), ports(srcPort, dstPort), cause, src, dst)
}

// PacketDelayed records jitter/reordering hold-back applied to a
// delivered packet.
func (t *Tracer) PacketDelayed(at time.Duration, src, dst string, extra time.Duration) {
	t.emit(at, KindPacketDelayed, 0, 0, 0, int64(extra), src, dst)
}

// LinkEpoch records a trace-driven link crossing into capacity epoch
// with the given rate, observed at a send with queued packets already
// in flight on the path. A zero-bps epoch is a capacity outage: the
// queue stalls without dropping, which is how phase attribution can
// separate capacity stalls from loss stalls.
func (t *Tracer) LinkEpoch(at time.Duration, src, dst string, epoch int64, bps float64, queued int) {
	t.emit(at, KindLinkEpoch, 0, epoch, int64(bps), int64(queued), src, dst)
}

// --- tcpsim ---

// TCPSynSent records a client SYN transmission (connection dial).
func (t *Tracer) TCPSynSent(at time.Duration, conn uint32) {
	t.emit(at, KindTCPSynSent, conn, 0, 0, 0, "", "")
}

// TCPEstablished records the three-way handshake completing.
func (t *Tracer) TCPEstablished(at time.Duration, conn uint32, client bool) {
	t.emit(at, KindTCPEstablished, conn, b2i(client), 0, 0, "", "")
}

// TCPCwndChange records a congestion-window adjustment.
func (t *Tracer) TCPCwndChange(at time.Duration, conn uint32, cwnd, ssthresh int, cause int64) {
	t.emit(at, KindTCPCwndChange, conn, int64(cwnd), int64(ssthresh), cause, "", "")
}

// TCPFastRetransmit records a triple-dupack fast retransmit.
func (t *Tracer) TCPFastRetransmit(at time.Duration, conn uint32, seq int64) {
	t.emit(at, KindTCPFastRetransmit, conn, seq, 0, 0, "", "")
}

// TCPRTOFire records a retransmission-timeout episode.
func (t *Tracer) TCPRTOFire(at time.Duration, conn uint32, retries int, rto time.Duration) {
	t.emit(at, KindTCPRTOFire, conn, int64(retries), int64(rto), 0, "", "")
}

// TCPConnFail records the connection aborting with err.
func (t *Tracer) TCPConnFail(at time.Duration, conn uint32, errText string) {
	t.emit(at, KindTCPConnFail, conn, 0, 0, 0, errText, "")
}

// TCPHolStart records receive-side head-of-line blocking beginning: data
// is buffered beyond a sequence gap.
func (t *Tracer) TCPHolStart(at time.Duration, conn uint32, buffered int) {
	t.emit(at, KindTCPHolStart, conn, int64(buffered), 0, 0, "", "")
}

// TCPHolEnd records the gap filling after d of blocking.
func (t *Tracer) TCPHolEnd(at time.Duration, conn uint32, d time.Duration) {
	t.emit(at, KindTCPHolEnd, conn, 0, int64(d), 0, "", "")
}

// --- tlssim ---

// TLSClientHello records the client's first flight.
func (t *Tracer) TLSClientHello(at time.Duration, conn uint32, version int, resuming, earlyData bool) {
	t.emit(at, KindTLSClientHello, conn, int64(version), b2i(resuming), b2i(earlyData), "", "")
}

// TLSServerFlight records the server's handshake flight.
func (t *Tracer) TLSServerFlight(at time.Duration, conn uint32, version int, resumed bool) {
	t.emit(at, KindTLSServerFlight, conn, int64(version), b2i(resumed), 0, "", "")
}

// TLSTicketIssued records a session ticket grant.
func (t *Tracer) TLSTicketIssued(at time.Duration, conn uint32, ticket uint64) {
	t.emit(at, KindTLSTicketIssued, conn, int64(ticket), 0, 0, "", "")
}

// TLSHandshakeDone records the handshake completing on one side.
func (t *Tracer) TLSHandshakeDone(at time.Duration, conn uint32, client, resumed, earlyData bool) {
	t.emit(at, KindTLSHandshakeDone, conn, b2i(client), b2i(resumed), b2i(earlyData), "", "")
}

// --- quicsim ---

// QUICHandshakeStart records a client dial (integrated transport+crypto
// handshake beginning).
func (t *Tracer) QUICHandshakeStart(at time.Duration, conn uint32, resuming, zeroRTT bool) {
	t.emit(at, KindQUICHandshakeStart, conn, b2i(resuming), b2i(zeroRTT), 0, "", "")
}

// QUICPacketSent records one short/long-header packet transmission.
func (t *Tracer) QUICPacketSent(at time.Duration, conn uint32, pn int64, size int) {
	t.emit(at, KindQUICPacketSent, conn, pn, int64(size), 0, "", "")
}

// QUICPacketRecv records one packet arriving (dup marks duplicates).
func (t *Tracer) QUICPacketRecv(at time.Duration, conn uint32, pn int64, dup bool) {
	t.emit(at, KindQUICPacketRecv, conn, pn, b2i(dup), 0, "", "")
}

// QUICAck records an ACK frame being processed.
func (t *Tracer) QUICAck(at time.Duration, conn uint32, largest int64, ranges, lost int) {
	t.emit(at, KindQUICAck, conn, largest, int64(ranges), int64(lost), "", "")
}

// QUICPacketLost records a packet declared lost.
func (t *Tracer) QUICPacketLost(at time.Duration, conn uint32, pn int64) {
	t.emit(at, KindQUICPacketLost, conn, pn, 0, 0, "", "")
}

// QUICPTOFire records a probe-timeout episode.
func (t *Tracer) QUICPTOFire(at time.Duration, conn uint32, ptoCount int) {
	t.emit(at, KindQUICPTOFire, conn, int64(ptoCount), 0, 0, "", "")
}

// QUICZeroRTT records the server's accept/reject decision for a
// resumption token carrying early data.
func (t *Tracer) QUICZeroRTT(at time.Duration, conn uint32, accepted bool) {
	t.emit(at, KindQUICZeroRTT, conn, b2i(accepted), 0, 0, "", "")
}

// QUICHandshakeDone records the handshake completing on one side.
func (t *Tracer) QUICHandshakeDone(at time.Duration, conn uint32, client, resumed, zeroRTT bool) {
	t.emit(at, KindQUICHandshakeDone, conn, b2i(client), b2i(resumed), b2i(zeroRTT), "", "")
}

// QUICConnFail records the connection aborting with err.
func (t *Tracer) QUICConnFail(at time.Duration, conn uint32, errText string) {
	t.emit(at, KindQUICConnFail, conn, 0, 0, 0, errText, "")
}

// QUICStallStart records per-stream head-of-line blocking beginning.
func (t *Tracer) QUICStallStart(at time.Duration, conn uint32, stream uint64, buffered int) {
	t.emit(at, KindQUICStallStart, conn, int64(stream), int64(buffered), 0, "", "")
}

// QUICStallEnd records the stream's gap filling after d of blocking.
func (t *Tracer) QUICStallEnd(at time.Duration, conn uint32, stream uint64, d time.Duration) {
	t.emit(at, KindQUICStallEnd, conn, int64(stream), int64(d), 0, "", "")
}

// --- httpsim (client side) ---

// HTTPStreamOpen records a request leaving the HTTP client.
func (t *Tracer) HTTPStreamOpen(at time.Duration, conn uint32, stream int64, host, path string) {
	t.emit(at, KindHTTPStreamOpen, conn, stream, 0, 0, host, path)
}

// HTTPHeaders records response headers arriving.
func (t *Tracer) HTTPHeaders(at time.Duration, conn uint32, stream int64, status, bodySize int) {
	t.emit(at, KindHTTPHeaders, conn, stream, int64(status), int64(bodySize), "", "")
}

// HTTPStreamClose records the response body completing.
func (t *Tracer) HTTPStreamClose(at time.Duration, conn uint32, stream int64) {
	t.emit(at, KindHTTPStreamClose, conn, stream, 0, 0, "", "")
}

// HTTPStreamFail records a request failing with err.
func (t *Tracer) HTTPStreamFail(at time.Duration, conn uint32, stream int64, errText string) {
	t.emit(at, KindHTTPStreamFail, conn, stream, 0, 0, errText, "")
}

// --- browser ---

// FetchStart records the browser issuing fetch seq for host/path.
func (t *Tracer) FetchStart(at time.Duration, seq int64, host, path string) {
	t.emit(at, KindFetchStart, 0, seq, 0, 0, host, path)
}

// FetchSent records the request entering a connection's send path.
func (t *Tracer) FetchSent(at time.Duration, conn uint32, seq int64) {
	t.emit(at, KindFetchSent, conn, seq, 0, 0, "", "")
}

// FetchDone records the fetch completing.
func (t *Tracer) FetchDone(at time.Duration, conn uint32, seq int64, status, bodySize int) {
	t.emit(at, KindFetchDone, conn, seq, int64(status), int64(bodySize), "", "")
}

// FetchRetry records a transparent re-fetch after a transport error.
func (t *Tracer) FetchRetry(at time.Duration, seq int64, attempt int, errText string) {
	t.emit(at, KindFetchRetry, 0, seq, int64(attempt), 0, errText, "")
}

// FetchFail records the fetch failing with its retry budget exhausted.
func (t *Tracer) FetchFail(at time.Duration, seq int64, errText string) {
	t.emit(at, KindFetchFail, 0, seq, 0, 0, errText, "")
}

// PreloadHit records H3 being selected for host from the preload list
// (no prior Alt-Svc observation needed).
func (t *Tracer) PreloadHit(at time.Duration, host string) {
	t.emit(at, KindPreloadHit, 0, 0, 0, 0, host, "")
}

// AltSvcLearned records an Alt-Svc h3 advertisement being recorded.
func (t *Tracer) AltSvcLearned(at time.Duration, host string) {
	t.emit(at, KindAltSvc, 0, 0, 0, 0, host, "")
}

// Preconnect records a speculative H3 dial following an Alt-Svc
// observation.
func (t *Tracer) Preconnect(at time.Duration, host string) {
	t.emit(at, KindPreconnect, 0, 0, 0, 0, host, "")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
