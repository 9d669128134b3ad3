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
// recycle via simnet's Release after delivery or drop (an all-opaque
// payload is an opaque run, which nothing recycles); frames arrays,
// ackFrames and sentPacket records recycle on definitive ACK retirement
// only; streamFrame structs are reference-counted (one hold per
// in-flight record) because a PTO probe may copy a frame pointer into a
// second record; a Stream struct is free from the scheduler event after
// its connection tears down (bufpool.Recycler), or, if its application
// holds it (Stream.Hold), after the application lets go.
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
	streams bufpool.Recycler[*Stream]
	conns   bufpool.Recycler[*Conn] // see Conn.Release

	// payloads recycles packet payloads (transmit takes, Release gives
	// back) and the copies a receiving stream parks beyond a gap. An
	// all-opaque payload or chunk is an opaque run and takes nothing.
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
	*sf = streamFrame{}
	pl.sframes.Put(sf)
}

// PayloadStats returns the packet-payload arena's counters.
func (pl *Pools) PayloadStats() bufpool.ArenaStats { return pl.payloads.Stats() }

// newStream returns a reset Stream bound to c. The parked chunks' array
// and the extent list's allocations are retained across reuses.
func (pl *Pools) newStream(c *Conn, id uint64) *Stream {
	s, ok := pl.streams.Get(c.sched, (*Stream).reset)
	if !ok {
		s = &Stream{}
	}
	s.conn = c
	s.id = id
	return s
}
