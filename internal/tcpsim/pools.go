package tcpsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe free list for TCP allocations. All endpoints
// of one simulation universe share one Pools on one scheduler goroutine,
// so reuse needs no locking and survives garbage-collection cycles: a
// warm shard replays each visit out of the same segment, buffer, and
// conn footprint. The zero value is ready to use.
//
// Segments and their payload buffers recycle at delivery or drop (the
// network calls Release after the handler returns). Extents go back when
// sndUna passes them or their connection tears down, so overlapping
// visits that never reach a Rewind still reuse them. Conn structs wait
// for the visit-boundary Rewind: late-firing closures (reset probes,
// stray duplicate deliveries) may still read a torn-down conn's fields
// until the scheduler drains.
type Pools struct {
	segs bufpool.FreeList[*segment]
	// payloads recycles segment payload buffers: the sender takes one
	// per data segment it builds, Release gives it back.
	payloads bufpool.Arena

	// extents recycles the arena copies of supplied bytes (WriteOpaque
	// takes, the ACK path and teardown give back). It is not the wire
	// arena and carries no per-visit balance rule: a connection that
	// outlives the visit keeps its unacknowledged extents.
	extents bufpool.Arena

	conns        bufpool.FreeList[*Conn]
	retiredConns []*Conn
}

// Rewind promotes retired conns to the free list. Must only run at a
// visit boundary: the scheduler has drained, so no timer or scheduled
// closure still references them. Conns are zeroed here, not when they
// retire: error delivery and late probe closures still read their
// fields after teardown.
func (pl *Pools) Rewind() {
	for i, c := range pl.retiredConns {
		c.reset()
		pl.conns.Put(c)
		pl.retiredConns[i] = nil
	}
	pl.retiredConns = pl.retiredConns[:0]
}
