package tcpsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe free list for TCP allocations. All endpoints
// of one simulation universe share one Pools on one scheduler goroutine,
// so reuse needs no locking and survives garbage-collection cycles: a
// warm shard replays each visit out of the same segment, buffer, and
// conn footprint. The zero value is ready to use.
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

// PayloadStats returns the segment-payload arena's counters.
func (pl *Pools) PayloadStats() bufpool.ArenaStats { return pl.payloads.Stats() }
