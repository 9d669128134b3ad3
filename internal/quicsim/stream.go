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

	// Send side. pend accumulates every byte written on the stream and
	// pendOff marks the pulled prefix. Frames alias windows of pend, and
	// of the arrays it outgrew (outgrown), until the peer has delivered
	// them; an acknowledged byte is not dead by itself — the receiver
	// parks the sender's memory behind a gap and reads it when the gap
	// fills — so the unit of release is the stream. acked counts the
	// bytes whose frame retired through an ACK; once the FIN frame has
	// too and acked == len(pend), the peer has delivered the whole stream
	// in order, nothing will read these arrays again, and they all go
	// back to Pools.pends (frameAcked). A stream that never gets there
	// keeps them until its connection's teardown retires them.
	pend      []byte
	pendOff   int
	outgrown  [][]byte
	acked     int
	finAcked  bool
	sendOff   uint64
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

// WriteOpaque queues head followed by n opaque bytes: head is appended
// to pend and pend is resliced over the n bytes after it, unwritten.
func (s *Stream) WriteOpaque(head []byte, n int) {
	if s.conn.state == stateClosed || s.finQueued {
		return
	}
	if need := len(s.pend) + len(head) + n; need > cap(s.pend) {
		old := s.pend
		s.pend = s.conn.pools.pends.Grow(old, need)
		if old != nil {
			s.outgrown = append(s.outgrown, old)
		}
	}
	s.pend = append(s.pend, head...)
	s.pend = s.pend[:len(s.pend)+n]
	s.conn.queue(s)
	s.conn.trySend()
}

// hasSendable reports whether the stream has unpulled bytes or a FIN
// still to send.
func (s *Stream) hasSendable() bool {
	return len(s.pend) > s.pendOff || (s.finQueued && !s.finSent)
}

// frameAcked records that a frame of n stream bytes retired through an
// ACK — it happens once per byte range, see streamFrame.holds — and
// gives the send arrays back when that completes the stream.
func (s *Stream) frameAcked(n int, fin bool) {
	s.acked += n
	if fin {
		s.finAcked = true
	}
	if s.finAcked && s.acked == len(s.pend) {
		s.releaseSendBufs(s.conn.pools.pends.Put)
	}
}

// releaseSendBufs hands every send array to release (Put when the stream
// is fully acknowledged, Retire at teardown) and leaves the stream
// holding none; the outgrown list keeps its allocation.
func (s *Stream) releaseSendBufs(release func([]byte)) {
	if s.pend != nil {
		release(s.pend)
	}
	for _, buf := range s.outgrown {
		release(buf)
	}
	clear(s.outgrown)
	s.outgrown = s.outgrown[:0]
	s.pend = nil
	s.pendOff = 0
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
// Data at rcvOff is delivered at once: every buffered chunk starts above
// rcvOff, so it is the chunk the gap scan would pick first. Chunks alias
// the sender's pend either way (see frameAcked for why that memory
// outlives them).
func (s *Stream) receive(f *streamFrame) {
	if f.fin {
		s.hasFin = true
		s.finOff = f.off + uint64(len(f.data))
	}
	end := f.off + uint64(len(f.data))
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
			*prev = data
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
// delivery granularity. Then it reports EOF and stall transitions.
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
