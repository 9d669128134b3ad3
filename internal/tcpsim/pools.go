package tcpsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe free list for TCP allocations. All endpoints
// of one simulation universe share one Pools on one scheduler goroutine,
// so reuse needs no locking and survives garbage-collection cycles: a
// warm shard replays each visit out of the same segment, buffer, and
// conn footprint. The zero value is ready to use.
//
// Segments recycle at delivery (the network calls Release after the
// handler returns). Send buffers and conn structs instead quarantine
// until the owning universe's visit-boundary Rewind: in-flight segments
// alias a connection's sendBuf — including arrays it outgrew mid-visit —
// and late-firing closures (reset probes, stray duplicate deliveries)
// may still read a torn-down conn's fields until the scheduler drains.
type Pools struct {
	segs bufpool.FreeList[*segment]

	// sendBufs recycles connection send buffers through Grow/Retire
	// only. A conn whose busy period outgrows the arena's largest class
	// falls back to plain allocation and its buffer is dropped for the
	// collector at Rewind.
	sendBufs bufpool.Arena

	conns        bufpool.FreeList[*Conn]
	retiredConns []*Conn
}

// Rewind promotes quarantined buffers and conns to the free lists. Must
// only run at a visit boundary: the scheduler has drained, so no wire
// copy, timer, or scheduled closure still references retired state.
// Conns are zeroed here, not when they retire: error delivery and late
// probe closures still read their fields after teardown.
func (pl *Pools) Rewind() {
	pl.sendBufs.Rewind()
	for i, c := range pl.retiredConns {
		c.reset()
		pl.conns.Put(c)
		pl.retiredConns[i] = nil
	}
	pl.retiredConns = pl.retiredConns[:0]
}
