package quicsim

import "h3cdn/internal/bytestream"

// Stream is an ordered byte stream multiplexed on a Conn. Data on one
// stream is delivered in order; loss on one stream never blocks another —
// the transport-level property behind HTTP/3's HoL-blocking immunity.
type Stream struct {
	conn *Conn
	id   uint64

	// Send side. Bytes [0, sendEnd) are written and [0, sendOff) framed.
	// supplied stores only the supplied ones; everything between them is
	// opaque. Every packet copies its frames' bytes out of supplied when
	// it is transmitted, so nothing on the wire or in the peer aliases
	// them. acked counts the bytes whose frame retired through an ACK;
	// once the FIN frame has too and acked == sendEnd, no frame of the
	// stream can be sent again and supplied goes back (frameAcked). A
	// stream that never gets there gives it back at teardown.
	supplied  bytestream.Extents
	sendEnd   uint64
	sendOff   uint64
	acked     uint64
	finAcked  bool
	finQueued bool
	finSent   bool
	// order is the stream's index in its connection's opening order, the
	// round-robin position; queued marks it on the connection's sendable
	// list.
	order  int
	queued bool
	held   bool // by the application: teardown leaves it to Release

	// Receive side: in-order delivery of this stream alone, so a hole
	// holds back no other stream. rcv parks what arrived beyond a gap in
	// the packet-payload arena (Pools.payloads).
	rcv   bytestream.Reassembly
	finFn func()
}

// reset clears a retired stream for reuse, keeping its extent list and
// its parked chunks' array, which teardown or Release emptied.
func (s *Stream) reset() {
	s.rcv.Reset()
	*s = Stream{supplied: s.supplied, rcv: s.rcv}
}

// ID returns the stream identifier.
func (s *Stream) ID() uint64 { return s.id }

// Conn returns the owning connection.
func (s *Stream) Conn() *Conn { return s.conn }

// SetDataFunc registers the in-order delivery callback for this stream.
func (s *Stream) SetDataFunc(fn func([]byte)) { s.rcv.SetDataFunc(fn) }

// SetFinFunc registers the end-of-stream callback (peer FIN received and
// all data delivered).
func (s *Stream) SetFinFunc(fn func()) { s.finFn = fn }

// Write queues p for transmission on this stream.
func (s *Stream) Write(p []byte) { s.WriteOpaque(p, 0) }

// WriteOpaque queues head followed by n opaque bytes. Only head is
// stored, as an extent; the opaque bytes advance sendEnd and nothing
// else.
func (s *Stream) WriteOpaque(head []byte, n int) {
	if s.conn.state == stateClosed || s.finQueued {
		return
	}
	s.supplied.Add(&s.conn.pools.extents, s.sendEnd, head)
	s.sendEnd += uint64(len(head) + n)
	s.conn.queue(s)
	s.conn.trySend()
}

// hasSendable reports whether the stream has unpulled bytes or a FIN
// still to send.
func (s *Stream) hasSendable() bool {
	return s.sendEnd > s.sendOff || (s.finQueued && !s.finSent)
}

// frameAcked records that a frame of n stream bytes retired through an
// ACK — it happens once per byte range, see streamFrame.holds — and
// gives the supplied bytes back when that completes the stream.
func (s *Stream) frameAcked(n int, fin bool) {
	s.acked += uint64(n)
	if fin {
		s.finAcked = true
	}
	if s.finAcked && s.acked == s.sendEnd {
		s.supplied.Release(&s.conn.pools.extents)
	}
}

// Hold keeps the struct, and its connection's, from recycling at
// teardown, for an application that may call the stream in a later event
// (a dead stream's writes do nothing).
func (s *Stream) Hold() {
	if !s.held {
		s.held = true
		s.conn.held++
	}
}

// Release drops Hold; the caller must not touch the stream again.
func (s *Stream) Release() {
	if !s.held {
		return
	}
	s.held = false
	c := s.conn
	c.held--
	if c.state == stateClosed {
		c.pools.streams.Retire(s, c.sched)
		c.maybeRetire()
	}
}

// freeBytes gives back everything the stream holds: its supplied bytes
// and the out-of-order copies parked in rcv. Teardown calls it.
func (s *Stream) freeBytes() {
	pl := s.conn.pools
	s.supplied.Release(&pl.extents)
	s.rcv.Release(&pl.payloads)
}

// CloseWrite queues a FIN after any pending data.
func (s *Stream) CloseWrite() {
	if s.conn.state == stateClosed || s.finQueued {
		return
	}
	s.finQueued = true
	s.conn.queue(s)
	s.conn.trySend()
}

// receive ingests a frame, then reports EOF before any stall edge.
func (s *Stream) receive(f streamData) {
	if s.rcv.Receive(&s.conn.pools.payloads, f.off, f.data, f.fin) && s.finFn != nil {
		s.finFn()
	}
	if s.conn.cfg.Trace != nil {
		now := s.conn.sched.Now()
		switch opened, parked, closed, held := s.rcv.Stall(now); {
		case opened:
			s.conn.cfg.Trace.QUICStallStart(now, s.conn.traceID, s.id, parked)
		case closed:
			s.conn.cfg.Trace.QUICStallEnd(now, s.conn.traceID, s.id, held)
		}
	}
}
