package httpsim

import (
	"h3cdn/internal/bufpool"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
)

// Pools aggregates every allocation arena the HTTP stack and its
// transports use. A campaign worker owns one Pools and runs every shard
// it takes on it, one universe at a time: all of a universe's endpoints
// run on its single scheduler goroutine, so reuse needs no locking, and
// the free lists survive garbage-collection cycles and universes alike.
// Every free list in it lives as long as the worker: it warms in the
// worker's first shard, and later shards replay out of the same
// footprint. The zero value is ready to use.
//
// Nothing in it waits for a visit boundary (DESIGN.md §4.17), so a
// Pools outlives its universes; Promote, called once their schedulers
// are done, keeps it from pinning one. respCache lives as long as the
// Pools, the interned names until the next Promote (DESIGN.md §4.27).
type Pools struct {
	// TCP, QUIC and Arena are the transport-layer arenas, handed to
	// endpoints by dialTLS/DialH3/StartServer.
	TCP   tcpsim.Pools
	QUIC  quicsim.Pools
	Arena bufpool.Arena
	// Recv recycles the TLS layer's carry buffers: a record split
	// across deliveries is copied into one, taken when the record's
	// first piece arrives and Put back as soon as it completes, so a
	// connection between records holds none (tlssim.Conn). It is not the
	// wire arena and carries no balance rule: a half-open server
	// connection, whose peer's reset was lost mid-record, is never
	// closed and keeps its carry until the collector takes both.
	Recv bufpool.Arena

	// respCache maps a response's stripped header lines to one canonical
	// header map shared by every consumer: the corpus re-sends identical
	// headers every visit, and consumers (HAR entries, the locedge
	// classifier) only ever read them. Never mutate a map from it.
	respCache map[string]map[string]string
	names     map[string]string // interned request Hosts and Paths (intern); cleared by Promote

	hdrBuf      []byte   // header-block assembly scratch
	keyBuf      []byte   // respCache key assembly scratch
	sortScratch []string // sorted header keys scratch

	// The records above the transports, and the responders.
	reqs       bufpool.Recycler[*request]     // see client.retire
	h3streams  bufpool.Recycler[*h3SrvStream] // see h3SrvStream.respond
	tls        tlssim.Pools
	h1         bufpool.Recycler[*h1Client]
	h2         bufpool.Recycler[*h2Client]
	h3         bufpool.Recycler[*h3Client]
	srv        bufpool.Recycler[*serverConn]
	h3srv      bufpool.Recycler[*h3Server]
	responders bufpool.FreeList[*Responder]
}

// Rewind is the visit-boundary check: it returns the wire arena's
// outstanding-buffer count, non-zero (a Get/Put leak) once the scheduler
// has drained and the browser has closed every connection. It resets
// nothing.
func (pl *Pools) Rewind() int64 { return pl.Arena.Stats().InUse }

// Promote ends the universes that ran on the Pools. Call it once their
// schedulers will run no more events: a campaign worker does at the end
// of each scripted shard and of each population epoch. Every struct
// retired so far, in every recycler of the HTTP, TLS, TCP and QUIC
// layers, is reset into its free list whatever its stamp, where it
// reaches no universe: a Recycler promotes a retired struct only on its
// next Get, and the next universe may never ask that one (an H2 shard
// after an H3 one), so the struct would otherwise keep the finished
// universe alive. The interned request and server names are forgotten
// too: only the finished universes' requests shared them.
func (pl *Pools) Promote() {
	pl.TCP.Promote()
	pl.QUIC.Promote()
	pl.tls.Promote()
	pl.reqs.Promote((*request).reset)
	pl.h3streams.Promote((*h3SrvStream).reset)
	pl.h1.Promote((*h1Client).reset)
	pl.h2.Promote((*h2Client).reset)
	pl.h3.Promote((*h3Client).reset)
	pl.srv.Promote((*serverConn).reset)
	pl.h3srv.Promote((*h3Server).reset)
	clear(pl.names)
}

// PoolNews counts the buffers a Pools' arenas had to allocate because
// their free lists were empty: wire records, TCP and QUIC packet
// payloads, and TLS carries. A Pools that stays warm across shards
// takes most of them in its first shard.
type PoolNews struct {
	Wire, TCP, QUIC, Recv uint64
}

// Add accumulates another Pools' counts.
func (n *PoolNews) Add(o PoolNews) {
	n.Wire += o.Wire
	n.TCP += o.TCP
	n.QUIC += o.QUIC
	n.Recv += o.Recv
}

// News reports the buffers the arenas have allocated so far.
func (pl *Pools) News() PoolNews {
	return PoolNews{
		Wire: pl.Arena.Stats().News,
		TCP:  pl.TCP.PayloadStats().News,
		QUIC: pl.QUIC.PayloadStats().News,
		Recv: pl.Recv.Stats().News,
	}
}

// --- per-request record pools ---

// getRequest hands out a request record bound to c.
func (pl *Pools) getRequest(c *client, req *Request, ev RequestEvents) *request {
	r, ok := pl.reqs.Get(c.sched, (*request).reset)
	if !ok {
		r = &request{}
	}
	r.c, r.req, r.ev = c, req, ev
	return r
}

// getH3SrvStream hands out a server stream state bound to one QUIC
// stream.
func (pl *Pools) getH3SrvStream(srv *h3Server, st *quicsim.Stream) *h3SrvStream {
	ss, ok := pl.h3streams.Get(srv.sched, (*h3SrvStream).reset)
	if !ok {
		ss = newH3SrvStream()
	}
	ss.pools, ss.sched, ss.srv, ss.st = pl, srv.sched, srv, st
	return ss
}
