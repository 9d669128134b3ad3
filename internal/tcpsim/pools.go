package tcpsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe free list for TCP allocations. All endpoints
// of one simulation universe share one Pools on one scheduler goroutine,
// so reuse needs no locking and survives garbage-collection cycles: a
// warm shard replays each visit out of the same segment, buffer, and
// conn footprint. The zero value is ready to use.
//
// Segments recycle at delivery (the network calls Release after the
// handler returns). Send arrays go back the moment they are provably
// dead — a buffer when it drains, an outgrown array when sndUna passes
// the bytes it had in flight, everything at a teardown with nothing in
// flight — so overlapping visits that never reach a Rewind still reuse
// them. Only a connection torn down with bytes in flight quarantines
// its arrays until the owning universe's visit-boundary Rewind, and
// conn structs always wait for it: late-firing closures (reset probes,
// stray duplicate deliveries) may still read a torn-down conn's fields
// until the scheduler drains.
type Pools struct {
	segs bufpool.FreeList[*segment]

	// sendBufs recycles connection send arrays (Conn.makeRoom takes,
	// processAck and teardown give back). It is not the wire arena and
	// carries no per-visit balance rule: a connection that outlives the
	// visit keeps what it has in flight. A window that outgrows the
	// arena's largest class falls back to plain allocation and its array
	// is dropped for the collector when it comes back.
	sendBufs bufpool.Arena

	conns        bufpool.FreeList[*Conn]
	retiredConns []*Conn
}

// Rewind promotes quarantined send arrays and conns to the free lists. Must
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
