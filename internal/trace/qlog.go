package trace

import (
	"fmt"
	"io"
	"strconv"
	"time"
)

// kindNames maps each Kind to its qlog event name ("category:event").
// QUIC packet/loss events reuse the canonical qlog names; simulator-
// specific events use the sim/tcp/tls/http/browser categories.
var kindNames = [kindCount]string{
	KindPacketSent:    "sim:packet_sent",
	KindPacketArrived: "sim:packet_arrived",
	KindPacketDropped: "sim:packet_dropped",
	KindPacketDelayed: "sim:packet_delayed",
	KindLinkEpoch:     "sim:link_epoch",

	KindTCPSynSent:        "tcp:syn_sent",
	KindTCPEstablished:    "tcp:connection_established",
	KindTCPCwndChange:     "tcp:cwnd_change",
	KindTCPFastRetransmit: "tcp:fast_retransmit",
	KindTCPRTOFire:        "tcp:rto_fired",
	KindTCPConnFail:       "tcp:connection_failed",
	KindTCPHolStart:       "tcp:hol_start",
	KindTCPHolEnd:         "tcp:hol_end",

	KindTLSClientHello:   "tls:client_hello",
	KindTLSServerFlight:  "tls:server_flight",
	KindTLSTicketIssued:  "tls:ticket_issued",
	KindTLSHandshakeDone: "tls:handshake_done",

	KindQUICHandshakeStart: "transport:connection_started",
	KindQUICPacketSent:     "transport:packet_sent",
	KindQUICPacketRecv:     "transport:packet_received",
	KindQUICAck:            "recovery:ack_received",
	KindQUICPacketLost:     "recovery:packet_lost",
	KindQUICPTOFire:        "recovery:pto_fired",
	KindQUICZeroRTT:        "security:zero_rtt_decision",
	KindQUICHandshakeDone:  "transport:handshake_done",
	KindQUICConnFail:       "transport:connection_failed",
	KindQUICStallStart:     "http:stream_stall_start",
	KindQUICStallEnd:       "http:stream_stall_end",

	KindHTTPStreamOpen:  "http:request_sent",
	KindHTTPHeaders:     "http:response_headers",
	KindHTTPStreamClose: "http:stream_closed",
	KindHTTPStreamFail:  "http:stream_failed",

	KindFetchStart: "browser:fetch_start",
	KindFetchSent:  "browser:fetch_sent",
	KindFetchDone:  "browser:fetch_done",
	KindFetchRetry: "browser:fetch_retry",
	KindFetchFail:  "browser:fetch_fail",
	KindPreloadHit: "browser:preload_hit",
	KindAltSvc:     "browser:alt_svc_learned",
	KindPreconnect: "browser:preconnect",
}

// Name returns the qlog event name for k, or "unknown".
func (k Kind) Name() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// QlogWriter serializes VisitRecords as qlog-compatible JSONL: one
// header record, then one JSON object per event with relative
// millisecond timestamps. Every byte is hand-serialized in fixed field
// order (no map iteration, no float formatting), so identical event
// sequences produce identical bytes — the property the pinned golden
// trace hash relies on.
type QlogWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewQlogWriter writes the qlog header record to w and returns a writer
// for subsequent visits. Errors are sticky; check Err after the last
// visit.
func NewQlogWriter(w io.Writer, title string) *QlogWriter {
	q := &QlogWriter{w: w, buf: make([]byte, 0, 4096)}
	q.buf = append(q.buf, `{"qlog_format":"JSON-SEQ","qlog_version":"0.3","title":`...)
	q.buf = appendJSONString(q.buf, title)
	q.buf = append(q.buf, `,"trace":{"vantage_point":{"type":"client"},"common_fields":{"time_format":"relative"}}}`...)
	q.buf = append(q.buf, '\n')
	q.flush()
	return q
}

// Err returns the first write error, if any.
func (q *QlogWriter) Err() error { return q.err }

func (q *QlogWriter) flush() {
	if q.err == nil && len(q.buf) > 0 {
		if _, err := q.w.Write(q.buf); err != nil {
			q.err = fmt.Errorf("trace: qlog write: %w", err)
		}
	}
	q.buf = q.buf[:0]
}

// WriteVisit serializes one visit: a visit_start record (site and PLT),
// the events with times relative to visit start, and a visit_end record.
// visit_start's dropped_events is always 0, since the tracer delivers
// every event of a visit or none; the key stays because the golden
// trace digest and qlogcheck's schema pin it.
func (q *QlogWriter) WriteVisit(v *VisitRecord) error {
	q.buf = append(q.buf, `{"time":0.000000,"name":"sim:visit_start","data":{"site":`...)
	q.buf = appendJSONString(q.buf, v.Site)
	q.buf = append(q.buf, `,"plt_ms":`...)
	q.buf = appendMS(q.buf, v.PLT)
	q.buf = append(q.buf, `,"dropped_events":0}}`+"\n"...)
	for i := range v.Events {
		q.appendEvent(&v.Events[i], v.Start)
		// Flush in chunks so a whole packet-level visit never holds a
		// multi-megabyte serialization buffer.
		if len(q.buf) >= 1<<16 {
			q.flush()
		}
	}
	q.buf = append(q.buf, `{"time":`...)
	q.buf = appendMS(q.buf, v.PLT)
	q.buf = append(q.buf, `,"name":"sim:visit_end","data":{}}`...)
	q.buf = append(q.buf, '\n')
	q.flush()
	return q.err
}

func (q *QlogWriter) appendEvent(e *Event, start time.Duration) {
	b := q.buf
	b = append(b, `{"time":`...)
	b = appendMS(b, e.At-start)
	b = append(b, `,"name":"`...)
	b = append(b, e.Kind.Name()...)
	b = append(b, `","data":{`...)
	n := len(b)
	if e.Conn != 0 {
		b = appendKVInt(b, "conn", int64(e.Conn))
	}
	switch e.Kind {
	case KindPacketSent, KindPacketArrived:
		b = appendKVStr(b, "src", e.S1)
		b = appendKVStr(b, "dst", e.S2)
		b = appendKVInt(b, "size", e.A)
		b = appendKVInt(b, "src_port", e.B>>16)
		b = appendKVInt(b, "dst_port", e.B&0xffff)
	case KindPacketDropped:
		b = appendKVStr(b, "src", e.S1)
		b = appendKVStr(b, "dst", e.S2)
		b = appendKVInt(b, "size", e.A)
		b = appendKVStr(b, "cause", dropCause(e.C))
	case KindPacketDelayed:
		b = appendKVStr(b, "src", e.S1)
		b = appendKVStr(b, "dst", e.S2)
		b = appendKVDurMS(b, "extra_ms", time.Duration(e.C))
	case KindLinkEpoch:
		b = appendKVStr(b, "src", e.S1)
		b = appendKVStr(b, "dst", e.S2)
		b = appendKVInt(b, "epoch", e.A)
		b = appendKVInt(b, "bps", e.B)
		b = appendKVInt(b, "queued", e.C)
	case KindTCPSynSent:
		// conn only
	case KindTCPEstablished:
		b = appendKVBool(b, "client", e.A != 0)
	case KindTCPCwndChange:
		b = appendKVInt(b, "cwnd", e.A)
		b = appendKVInt(b, "ssthresh", e.B)
		b = appendKVStr(b, "cause", cwndCause(e.C))
	case KindTCPFastRetransmit:
		b = appendKVInt(b, "seq", e.A)
	case KindTCPRTOFire:
		b = appendKVInt(b, "timeouts", e.A)
		b = appendKVDurMS(b, "rto_ms", time.Duration(e.B))
	case KindTCPConnFail, KindQUICConnFail:
		b = appendKVStr(b, "error", e.S1)
	case KindTCPHolStart:
		b = appendKVInt(b, "buffered", e.A)
	case KindTCPHolEnd:
		b = appendKVDurMS(b, "stall_ms", time.Duration(e.B))
	case KindTLSClientHello:
		b = appendKVInt(b, "version", e.A)
		b = appendKVBool(b, "resuming", e.B != 0)
		b = appendKVBool(b, "early_data", e.C != 0)
	case KindTLSServerFlight:
		b = appendKVInt(b, "version", e.A)
		b = appendKVBool(b, "resumed", e.B != 0)
	case KindTLSTicketIssued:
		b = appendKVInt(b, "ticket", e.A)
	case KindTLSHandshakeDone:
		b = appendKVBool(b, "client", e.A != 0)
		b = appendKVBool(b, "resumed", e.B != 0)
		b = appendKVBool(b, "early_data", e.C != 0)
	case KindQUICHandshakeStart:
		b = appendKVBool(b, "resuming", e.A != 0)
		b = appendKVBool(b, "zero_rtt", e.B != 0)
	case KindQUICPacketSent:
		b = appendKVInt(b, "packet_number", e.A)
		b = appendKVInt(b, "size", e.B)
	case KindQUICPacketRecv:
		b = appendKVInt(b, "packet_number", e.A)
		b = appendKVBool(b, "duplicate", e.B != 0)
	case KindQUICAck:
		b = appendKVInt(b, "largest_acked", e.A)
		b = appendKVInt(b, "ranges", e.B)
		b = appendKVInt(b, "lost", e.C)
	case KindQUICPacketLost:
		b = appendKVInt(b, "packet_number", e.A)
	case KindQUICPTOFire:
		b = appendKVInt(b, "pto_count", e.A)
	case KindQUICZeroRTT:
		b = appendKVBool(b, "accepted", e.A != 0)
	case KindQUICHandshakeDone:
		b = appendKVBool(b, "client", e.A != 0)
		b = appendKVBool(b, "resumed", e.B != 0)
		b = appendKVBool(b, "zero_rtt", e.C != 0)
	case KindQUICStallStart:
		b = appendKVInt(b, "stream_id", e.A)
		b = appendKVInt(b, "buffered", e.B)
	case KindQUICStallEnd:
		b = appendKVInt(b, "stream_id", e.A)
		b = appendKVDurMS(b, "stall_ms", time.Duration(e.B))
	case KindHTTPStreamOpen:
		b = appendKVInt(b, "stream_id", e.A)
		b = appendKVStr(b, "host", e.S1)
		b = appendKVStr(b, "path", e.S2)
	case KindHTTPHeaders:
		b = appendKVInt(b, "stream_id", e.A)
		b = appendKVInt(b, "status", e.B)
		b = appendKVInt(b, "body_size", e.C)
	case KindHTTPStreamClose:
		b = appendKVInt(b, "stream_id", e.A)
	case KindHTTPStreamFail:
		b = appendKVInt(b, "stream_id", e.A)
		b = appendKVStr(b, "error", e.S1)
	case KindFetchStart:
		b = appendKVInt(b, "fetch", e.A)
		b = appendKVStr(b, "host", e.S1)
		b = appendKVStr(b, "path", e.S2)
	case KindFetchSent:
		b = appendKVInt(b, "fetch", e.A)
	case KindFetchDone:
		b = appendKVInt(b, "fetch", e.A)
		b = appendKVInt(b, "status", e.B)
		b = appendKVInt(b, "body_size", e.C)
	case KindFetchRetry:
		b = appendKVInt(b, "fetch", e.A)
		b = appendKVInt(b, "attempt", e.B)
		b = appendKVStr(b, "error", e.S1)
	case KindFetchFail:
		b = appendKVInt(b, "fetch", e.A)
		b = appendKVStr(b, "error", e.S1)
	case KindPreloadHit, KindAltSvc, KindPreconnect:
		b = appendKVStr(b, "host", e.S1)
	}
	// Strip the trailing comma appendKV helpers leave behind.
	if len(b) > n && b[len(b)-1] == ',' {
		b = b[:len(b)-1]
	}
	b = append(b, "}}\n"...)
	q.buf = b
}

func dropCause(c int64) string {
	switch c {
	case DropFilter:
		return "filter"
	case DropQueue:
		return "queue"
	case DropLoss:
		return "loss"
	case DropBurst:
		return "burst"
	case DropOutage:
		return "outage"
	}
	return "unknown"
}

func cwndCause(c int64) string {
	switch c {
	case CwndFastRecovery:
		return "fast_recovery"
	case CwndRecoveryExit:
		return "recovery_exit"
	case CwndRTOCollapse:
		return "rto_collapse"
	}
	return "unknown"
}

// appendMS appends a nanosecond duration as fractional milliseconds
// with exactly six decimal places — nanosecond-exact, float-free, and
// byte-deterministic.
func appendMS(b []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1e6, 10)
	b = append(b, '.')
	frac := ns % 1e6
	for div := int64(1e5); div > 0; div /= 10 {
		b = append(b, byte('0'+frac/div%10))
	}
	return b
}

// appendKV* append `"key":value,` — the caller strips the final comma.

func appendKVInt(b []byte, k string, v int64) []byte {
	b = append(b, '"')
	b = append(b, k...)
	b = append(b, `":`...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, ',')
}

func appendKVStr(b []byte, k, v string) []byte {
	b = append(b, '"')
	b = append(b, k...)
	b = append(b, `":`...)
	b = appendJSONString(b, v)
	return append(b, ',')
}

func appendKVBool(b []byte, k string, v bool) []byte {
	b = append(b, '"')
	b = append(b, k...)
	b = append(b, `":`...)
	b = strconv.AppendBool(b, v)
	return append(b, ',')
}

func appendKVDurMS(b []byte, k string, d time.Duration) []byte {
	b = append(b, '"')
	b = append(b, k...)
	b = append(b, `":`...)
	b = appendMS(b, d)
	return append(b, ',')
}

// appendJSONString appends v as a JSON string literal. Hostnames,
// paths, and static error text are plain ASCII, but control characters
// and quotes are escaped for safety.
func appendJSONString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
