package tcpsim

import "h3cdn/internal/bufpool"

// Pools is the free list for TCP allocations. It lives as long as the
// campaign worker that owns it, and serves the universes the worker runs
// one at a time; all endpoints of a universe share it on one scheduler
// goroutine, so reuse needs no locking and survives garbage-collection
// cycles: a warm worker replays each visit out of the same segment,
// buffer, and conn footprint. The zero value is ready to use.
//
// Segments and their payload buffers recycle at delivery or drop (the
// network calls Release after the handler returns); an all-opaque
// payload is an opaque run and takes no buffer. Extents go back when
// sndUna passes them or their connection tears down. A torn-down conn
// struct is free from the next scheduler event on (bufpool.Recycler):
// nothing scheduled still reaches it, so overlapping visits and a shard's
// successive epochs reuse it without waiting for the scheduler to drain.
type Pools struct {
	segs bufpool.FreeList[*segment]
	// payloads recycles segment payload buffers: the sender takes one
	// per data segment it builds that holds a supplied byte, Release
	// gives it back.
	payloads bufpool.Arena

	// extents recycles the arena copies of supplied bytes (WriteOpaque
	// takes, the ACK path and teardown give back) and lends the arrays
	// of the conns' extent lists. It is not the wire
	// arena and carries no per-visit balance rule: a connection that
	// outlives the visit keeps its unacknowledged extents.
	extents bufpool.Arena

	conns bufpool.Recycler[*Conn]
}

// Promote resets and frees every retired conn whatever its stamp; call
// it once the schedulers that retired them will run no more events.
func (pl *Pools) Promote() { pl.conns.Promote((*Conn).reset) }

// PayloadStats returns the segment-payload arena's counters.
func (pl *Pools) PayloadStats() bufpool.ArenaStats { return pl.payloads.Stats() }
