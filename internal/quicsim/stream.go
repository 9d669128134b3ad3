package quicsim

import (
	"time"

	"h3cdn/internal/bytestream"
)

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

	// Receive side.
	rcvOff  uint64
	chunks  bytestream.Gaps[[]byte]
	finOff  uint64
	hasFin  bool
	gotEOF  bool
	dataFn  func([]byte)
	finFn   func()
	nRecved int64

	// Stall bookkeeping, maintained only when tracing is enabled: a
	// stall is an interval during which out-of-order data is buffered
	// waiting for an earlier gap to fill. Purely observational.
	holActive bool
	holStart  time.Duration
}

// ID returns the stream identifier.
func (s *Stream) ID() uint64 { return s.id }

// Conn returns the owning connection.
func (s *Stream) Conn() *Conn { return s.conn }

// SetDataFunc registers the in-order delivery callback for this stream.
func (s *Stream) SetDataFunc(fn func([]byte)) { s.dataFn = fn }

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

// release gives back everything the stream holds: its supplied bytes
// and the out-of-order copies parked in chunks. Teardown calls it.
func (s *Stream) release() {
	pl := s.conn.pools
	s.supplied.Release(&pl.extents)
	s.chunks.Each(func(_ uint64, data []byte) { pl.payloads.Put(data) })
	s.chunks.Reset()
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

// BytesReceived reports in-order bytes delivered so far.
func (s *Stream) BytesReceived() int64 { return s.nRecved }

// receive ingests a (possibly out-of-order, possibly duplicate) frame.
// Data at rcvOff is delivered at once, straight from the packet: every
// buffered chunk starts above rcvOff, so it is the chunk the gap scan
// would pick first. Data beyond a gap is copied into a payloads buffer
// and parked, since the packet's payload goes back once it is handled.
func (s *Stream) receive(f streamData) {
	end := f.off + uint64(len(f.data))
	if f.fin {
		s.hasFin = true
		s.finOff = end
	}
	if end > s.rcvOff && len(f.data) > 0 {
		data := f.data
		off := f.off
		if off < s.rcvOff {
			data = data[s.rcvOff-off:]
			off = s.rcvOff
		}
		if off == s.rcvOff {
			s.deliver(data)
		} else if prev, found := s.chunks.Slot(off); !found || len(data) > len(*prev) {
			pl := s.conn.pools
			buf := pl.payloads.Get(len(data))
			copy(buf, data)
			if found {
				pl.payloads.Put(*prev)
			}
			*prev = buf
		}
	}
	s.advance()
}

// deliver hands the in-order bytes at rcvOff to the application.
func (s *Stream) deliver(data []byte) {
	s.rcvOff += uint64(len(data))
	s.nRecved += int64(len(data))
	s.conn.stats.BytesDelivered += int64(len(data))
	if s.dataFn != nil {
		s.dataFn(data)
	}
}

// advance drains the gap buffer up to the first hole, taking the LOWEST
// chunk at or below rcvOff each time: with loss and reordering, trimming
// can leave several overlapping chunks there, and the choice decides
// delivery granularity. A chunk is popped before its callback runs, so
// a teardown inside the callback never sees it. Then it reports EOF and
// stall transitions.
func (s *Stream) advance() {
	for {
		off, data, ok := s.chunks.Head()
		if !ok || off > s.rcvOff {
			break
		}
		s.chunks.Pop()
		// A chunk that ends at or below rcvOff is a stale duplicate.
		if end := off + uint64(len(data)); end > s.rcvOff {
			s.deliver(data[s.rcvOff-off:])
		}
		s.conn.pools.payloads.Put(data)
	}
	if s.hasFin && !s.gotEOF && s.rcvOff >= s.finOff {
		s.gotEOF = true
		if s.finFn != nil {
			s.finFn()
		}
	}
	if s.conn.cfg.Trace != nil {
		switch {
		case !s.holActive && s.chunks.Len() > 0:
			s.holActive = true
			s.holStart = s.conn.sched.Now()
			buffered := 0
			s.chunks.Each(func(_ uint64, data []byte) { buffered += len(data) })
			s.conn.cfg.Trace.QUICStallStart(s.holStart, s.conn.traceID, s.id, buffered)
		case s.holActive && s.chunks.Len() == 0:
			s.holActive = false
			now := s.conn.sched.Now()
			s.conn.cfg.Trace.QUICStallEnd(now, s.conn.traceID, s.id, now-s.holStart)
		}
	}
}
