package quicsim

import "h3cdn/internal/bufpool"

// Pools is the arena for the transport's per-packet and per-stream
// records and bytes: packets (with their ACK range arrays) and their
// payloads, frames arrays, sentPacket records, streamFrame structs,
// Stream objects and their supplied-byte extents. It lives as long as
// the campaign worker that owns it, and serves the universes the worker
// runs one at a time; all endpoints of a universe share it on the
// universe's one scheduler goroutine, so reuse needs no locking. Free
// lists persist across visits and universes — a warm worker replays
// each visit out of the same allocation footprint. The zero value is
// ready to use.
//
// Recycling discipline (see DESIGN.md §4.17): packets, their ACK ranges
// and their payloads recycle via simnet's Release after delivery or drop
// (an all-opaque payload is an opaque run, which nothing recycles);
// frames arrays and sentPacket records recycle on definitive ACK
// retirement only; streamFrame structs are reference-counted (one hold
// per in-flight record) because a PTO probe may copy a frame pointer
// into a second record; a Stream struct is free from the scheduler
// event after its connection tears down (bufpool.Recycler), or, if its
// application holds it (Stream.Hold), after the application lets go.
// The bytes a stream holds do not wait: its extents go back when it is
// fully acknowledged or its connection tears down, and its parked
// out-of-order copies when they are delivered or at teardown.
type Pools struct {
	packets bufpool.FreeList[*packet]
	frames  bufpool.FreeList[[]frame]
	sents   bufpool.FreeList[*sentPacket]
	sframes bufpool.FreeList[*streamFrame]
	streams bufpool.Recycler[*Stream]
	conns   bufpool.Recycler[*Conn] // see Conn.Release

	// payloads recycles packet payloads (transmit takes, Release gives
	// back) and the copies a receiving stream parks beyond a gap, and
	// lends the array they park in. An all-opaque payload or chunk is an
	// opaque run and takes nothing.
	payloads bufpool.Arena
	// extents recycles streams' copies of supplied bytes (WriteOpaque
	// takes, full acknowledgement or teardown gives back) and lends the
	// arrays of their extent lists. Neither is
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

// Promote resets and frees every retired stream and conn whatever its
// stamp; call it once the schedulers that retired them will run no more
// events.
func (pl *Pools) Promote() {
	pl.streams.Promote((*Stream).reset)
	pl.conns.Promote((*Conn).reset)
}

// PayloadStats returns the packet-payload arena's counters.
func (pl *Pools) PayloadStats() bufpool.ArenaStats { return pl.payloads.Stats() }

// newStream returns a reset Stream bound to c.
func (pl *Pools) newStream(c *Conn, id uint64) *Stream {
	s, ok := pl.streams.Get(c.sched, (*Stream).reset)
	if !ok {
		s = &Stream{}
	}
	s.conn = c
	s.id = id
	return s
}
