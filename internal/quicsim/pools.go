package quicsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe arena for the transport's per-packet and
// per-stream records and bytes: packets and their payloads, frames
// arrays, sentPacket and ackFrame records, streamFrame structs, Stream
// objects and their supplied-byte extents. One simulation
// universe shares a single Pools across all of its endpoints; every
// endpoint runs on the universe's one scheduler goroutine, so reuse
// needs no locking. Free lists persist across visits — a warm shard
// replays each visit out of the same allocation footprint. The zero
// value is ready to use.
//
// Recycling discipline (see DESIGN.md §4.17): packets and their payloads
// recycle via simnet's Release after delivery or drop; frames arrays,
// ackFrames and sentPacket records recycle on definitive ACK retirement
// only; streamFrame structs are reference-counted (one hold per
// in-flight record) because a PTO probe may copy a frame pointer into a
// second record; Streams retire at connection teardown but are
// quarantined on a retired list until the visit-boundary Rewind,
// because scheduled application callbacks may still touch them until
// the scheduler drains.
// The bytes a stream holds do not wait: its extents go back when it is
// fully acknowledged or its connection tears down, and its parked
// out-of-order copies when they are delivered or at teardown.
type Pools struct {
	packets bufpool.FreeList[*packet]
	ackPkts bufpool.FreeList[*packet]
	frames  bufpool.FreeList[[]frame]
	sents   bufpool.FreeList[*sentPacket]
	acks    bufpool.FreeList[*ackFrame]
	sframes bufpool.FreeList[*streamFrame]
	streams bufpool.FreeList[*Stream]
	retired []*Stream

	// payloads recycles packet payloads (transmit takes, Release gives
	// back) and the copies a receiving stream parks beyond a gap.
	payloads bufpool.Arena
	// extents recycles streams' copies of supplied bytes (WriteOpaque
	// takes, full acknowledgement or teardown gives back). Neither is
	// the wire arena or carries a per-visit balance rule: a connection
	// that outlives the visit keeps what it holds.
	extents bufpool.Arena
}

func (pl *Pools) newStreamFrame(s *Stream, off uint64, n int) *streamFrame {
	sf, ok := pl.sframes.Get()
	if !ok {
		sf = &streamFrame{}
	}
	*sf = streamFrame{s: s, off: off, n: n, holds: 1}
	return sf
}

// releaseHold drops one record's hold on sf and recycles the struct once
// no in-flight record references it.
func (pl *Pools) releaseHold(sf *streamFrame) {
	sf.holds--
	if sf.holds > 0 {
		return
	}
	pl.sframes.Put(sf)
}

// newStream returns a reset Stream bound to c. The gap buffer's and the
// extent list's allocations are retained across reuses.
func (pl *Pools) newStream(c *Conn, id uint64) *Stream {
	s, ok := pl.streams.Get()
	if !ok {
		s = &Stream{}
	}
	s.conn = c
	s.id = id
	return s
}

// Rewind promotes the streams of torn-down connections to the free
// list. They sit on retired until now because pending application
// callbacks (e.g. a server response scheduled before the close) may
// still call Write/CloseWrite on them; those are no-ops on the closed
// conn only while the struct stays intact. Callers must only invoke it
// at a visit boundary: the scheduler has drained, so no callback can
// reach a retired stream. Teardown already gave back their bytes.
func (pl *Pools) Rewind() {
	for i, s := range pl.retired {
		*s = Stream{supplied: s.supplied, chunks: s.chunks}
		pl.streams.Put(s)
		pl.retired[i] = nil
	}
	pl.retired = pl.retired[:0]
}
