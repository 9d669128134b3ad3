package trace

import (
	"sort"
	"time"
)

// PhaseBreakdown folds one visit's events into the paper's F6b-style
// phase buckets. The buckets partition the visit window [Start,
// Start+PLT]: each instant is attributed to exactly one phase by
// priority (connect > handshake > stall > transfer), and time covered
// by no activity span lands in Other — so the buckets sum to PLT by
// construction, which is what the HAR cross-check test relies on.
type PhaseBreakdown struct {
	// Resolve is DNS time. The simulated resolver is an in-process
	// table (the paper's vantages run a warm local resolver), so this
	// is always zero; the bucket exists to keep the taxonomy aligned
	// with the paper's phase list.
	Resolve time.Duration `json:"resolve"`
	// Connect is TCP three-way-handshake time (SYN sent to
	// established) on client connections. Zero for pure-H3 visits:
	// QUIC's integrated handshake is all Handshake.
	Connect time.Duration `json:"connect"`
	// Handshake is TLS handshake time over TCP, or the whole QUIC
	// handshake (transport + crypto are one exchange).
	Handshake time.Duration `json:"handshake"`
	// Stall is receive-side head-of-line blocking: time data sat
	// buffered behind a sequence gap on client connections (TCP) or
	// client streams (QUIC).
	Stall time.Duration `json:"stall"`
	// Transfer is request/response time outside the phases above:
	// fetch sent to fetch completion.
	Transfer time.Duration `json:"transfer"`
	// Other is visit time covered by none of the spans (script-free
	// think time, inter-fetch gaps, post-failure tails).
	Other time.Duration `json:"other"`
}

// Total returns the bucket sum — exactly the visit's PLT.
func (p PhaseBreakdown) Total() time.Duration {
	return p.Resolve + p.Connect + p.Handshake + p.Stall + p.Transfer + p.Other
}

// Add accumulates q into p.
func (p *PhaseBreakdown) Add(q PhaseBreakdown) {
	p.Resolve += q.Resolve
	p.Connect += q.Connect
	p.Handshake += q.Handshake
	p.Stall += q.Stall
	p.Transfer += q.Transfer
	p.Other += q.Other
}

// Attribution classes in priority order: when spans overlap, the
// highest-priority (lowest-valued) active class claims the time.
const (
	classConnect = iota
	classHandshake
	classStall
	classTransfer
	numClasses
)

type sweepPoint struct {
	at    time.Duration
	class int8
	delta int8 // +1 span opens, -1 span closes
}

// AttributeVisit computes the phase breakdown of one visit from its
// event trace. Only client-side connections contribute connect,
// handshake, and stall spans; server connections are identified by
// having no dial event (TCPSynSent / QUICHandshakeStart) and excluded.
// Spans still open at the visit's end (failed handshakes, unfilled
// gaps) are clamped to the window.
func AttributeVisit(v *VisitRecord) PhaseBreakdown {
	var out PhaseBreakdown
	if v.PLT <= 0 {
		return out
	}
	start, end := v.Start, v.Start+v.PLT

	// Client connections: ids that dialed inside this visit.
	client := make(map[uint32]bool)
	for i := range v.Events {
		e := &v.Events[i]
		if e.Kind == KindTCPSynSent || e.Kind == KindQUICHandshakeStart {
			client[e.Conn] = true
		}
	}

	var points []sweepPoint
	addSpan := func(from, to time.Duration, class int8) {
		if from < start {
			from = start
		}
		if to > end {
			to = end
		}
		if to <= from {
			return
		}
		points = append(points, sweepPoint{from, class, +1}, sweepPoint{to, class, -1})
	}

	type streamKey struct {
		conn   uint32
		stream int64
	}
	connOpen := make(map[uint32]time.Duration)     // TCP dial in progress
	tlsOpen := make(map[uint32]time.Duration)      // TLS handshake in progress
	quicOpen := make(map[uint32]time.Duration)     // QUIC handshake in progress
	tcpStall := make(map[uint32]time.Duration)     // TCP HOL stall in progress
	quicStall := make(map[streamKey]time.Duration) // QUIC stream stall in progress
	fetchOpen := make(map[int64]time.Duration)     // fetch in flight, by sequence number

	for i := range v.Events {
		e := &v.Events[i]
		switch e.Kind {
		case KindTCPSynSent:
			connOpen[e.Conn] = e.At
		case KindTCPEstablished:
			if from, ok := connOpen[e.Conn]; ok && e.A != 0 {
				addSpan(from, e.At, classConnect)
				delete(connOpen, e.Conn)
			}
		case KindTLSClientHello:
			if client[e.Conn] {
				tlsOpen[e.Conn] = e.At
			}
		case KindTLSHandshakeDone:
			if from, ok := tlsOpen[e.Conn]; ok && e.A != 0 {
				addSpan(from, e.At, classHandshake)
				delete(tlsOpen, e.Conn)
			}
		case KindQUICHandshakeStart:
			quicOpen[e.Conn] = e.At
		case KindQUICHandshakeDone:
			if from, ok := quicOpen[e.Conn]; ok && e.A != 0 {
				addSpan(from, e.At, classHandshake)
				delete(quicOpen, e.Conn)
			}
		case KindTCPHolStart:
			if client[e.Conn] {
				tcpStall[e.Conn] = e.At
			}
		case KindTCPHolEnd:
			if from, ok := tcpStall[e.Conn]; ok {
				addSpan(from, e.At, classStall)
				delete(tcpStall, e.Conn)
			}
		case KindQUICStallStart:
			if client[e.Conn] {
				quicStall[streamKey{e.Conn, e.A}] = e.At
			}
		case KindQUICStallEnd:
			if from, ok := quicStall[streamKey{e.Conn, e.A}]; ok {
				addSpan(from, e.At, classStall)
				delete(quicStall, streamKey{e.Conn, e.A})
			}
		case KindFetchSent:
			fetchOpen[e.A] = e.At
		case KindFetchDone, KindFetchFail:
			if from, ok := fetchOpen[e.A]; ok {
				addSpan(from, e.At, classTransfer)
				delete(fetchOpen, e.A)
			}
		}
	}
	// Clamp still-open spans (aborted dials, unfilled gaps, fetches
	// still in flight at the visit's end) to the window.
	for _, from := range connOpen {
		addSpan(from, end, classConnect)
	}
	for _, from := range tlsOpen {
		addSpan(from, end, classHandshake)
	}
	for _, from := range quicOpen {
		addSpan(from, end, classHandshake)
	}
	for _, from := range tcpStall {
		addSpan(from, end, classStall)
	}
	for _, from := range quicStall {
		addSpan(from, end, classStall)
	}
	for _, from := range fetchOpen {
		addSpan(from, end, classTransfer)
	}

	// Priority sweep over the span boundaries. Between consecutive
	// boundaries the active-class set is constant; the segment goes to
	// the highest-priority active class, or Other when none is active.
	sort.Slice(points, func(i, j int) bool { return points[i].at < points[j].at })
	buckets := [numClasses + 1]time.Duration{} // +1: Other
	var counts [numClasses]int
	prev := start
	attribute := func(upto time.Duration) {
		if upto <= prev {
			return
		}
		seg := upto - prev
		cl := numClasses // Other
		for c := 0; c < numClasses; c++ {
			if counts[c] > 0 {
				cl = c
				break
			}
		}
		buckets[cl] += seg
		prev = upto
	}
	for _, p := range points {
		attribute(p.at)
		counts[p.class] += int(p.delta)
	}
	attribute(end)

	out.Connect = buckets[classConnect]
	out.Handshake = buckets[classHandshake]
	out.Stall = buckets[classStall]
	out.Transfer = buckets[classTransfer]
	out.Other = buckets[numClasses]
	return out
}
