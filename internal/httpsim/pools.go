package httpsim

import (
	"h3cdn/internal/bufpool"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/tcpsim"
)

// Pools aggregates every per-universe allocation arena the HTTP stack
// and its transports use. One simulation universe owns one Pools; all
// of its endpoints run on the universe's single scheduler goroutine, so
// reuse needs no locking, and the free lists survive garbage-collection
// cycles. A warm shard replays each visit out of the same allocation
// footprint. The zero value is ready to use.
//
// Nothing in it waits for a visit boundary (DESIGN.md §4.17), so a
// Pools may outlive its universe: a population shard carries one through
// its epochs, one scheduler at a time. respCache and the request
// interner live as long as the Pools (DESIGN.md §4.27).
type Pools struct {
	// TCP, QUIC and Arena are the transport-layer arenas, handed to
	// endpoints by dialTLS/DialH3/StartServer.
	TCP   tcpsim.Pools
	QUIC  quicsim.Pools
	Arena bufpool.Arena
	// Recv recycles the TLS record accumulators of H1/H2 connections:
	// taken at a connection's first delivery, Put back when it closes
	// (nothing aliases an accumulator between deliveries, so reuse need
	// not wait for Rewind — overlapping population visits never reach
	// one). It is not the wire arena and carries no balance rule: a
	// half-open server connection, whose peer's reset was lost, is never
	// closed and keeps its buffer until the collector takes both.
	Recv bufpool.Arena

	// respCache maps a response's stripped header lines to one canonical
	// header map shared by every consumer: the corpus re-sends identical
	// headers every visit, and consumers (HAR entries, the locedge
	// classifier) only ever read them. Never mutate a map from it.
	respCache map[string]map[string]string
	names     map[string]string // interned request Hosts and Paths (intern)

	hdrBuf      []byte   // header-block assembly scratch
	keyBuf      []byte   // respCache key assembly scratch
	sortScratch []string // sorted header keys scratch

	h2Pendings bufpool.FreeList[*h2Pending]
	h2Resps    bufpool.FreeList[*h2Response]

	h3cli bufpool.Recycler[*h3Stream]    // see h3Client.retire
	h3srv bufpool.Recycler[*h3SrvStream] // see h3SrvStream.respond
}

// orPrivate is every Dial*/StartServer's defaulting step: an endpoint
// configured without pools gets a private set, so nothing past this
// point sees a nil *Pools.
func orPrivate(pl *Pools) *Pools {
	if pl == nil {
		return &Pools{}
	}
	return pl
}

// Rewind is the visit-boundary check: it returns the wire arena's
// outstanding-buffer count, non-zero (a Get/Put leak) once the scheduler
// has drained and the browser has closed every connection. It resets
// nothing.
func (pl *Pools) Rewind() int64 { return pl.Arena.Stats().InUse }

// --- per-request record pools ---

func (pl *Pools) getH2Pending(p h2Pending) *h2Pending {
	sp, ok := pl.h2Pendings.Get()
	if !ok {
		sp = new(h2Pending)
	}
	*sp = p
	return sp
}

// putH2Pending recycles immediately: once OnComplete/OnError has fired
// the record is unreachable (h2Client holds the only reference, in the
// streams map, and has already deleted it).
func (pl *Pools) putH2Pending(p *h2Pending) {
	*p = h2Pending{}
	pl.h2Pendings.Put(p)
}

func (pl *Pools) getH2Response(id uint32, remaining int) *h2Response {
	r, ok := pl.h2Resps.Get()
	if !ok {
		r = new(h2Response)
	}
	r.id, r.remaining = id, remaining
	return r
}

// getH3Stream hands out a client stream state.
func (pl *Pools) getH3Stream(c *h3Client, req *Request, ev RequestEvents) *h3Stream {
	st, ok := pl.h3cli.Get(c.sched, (*h3Stream).reset)
	if !ok {
		st = &h3Stream{}
		// Bound once per struct lifetime; reads st.c at call time so the
		// closure survives pooling.
		sp := st
		st.dataFn = func(data []byte) { sp.c.onStreamData(sp, data) }
	}
	st.c = c
	st.req = req
	st.ev = ev
	return st
}

// getH3SrvStream hands out a server stream state bound to one QUIC
// stream.
func (pl *Pools) getH3SrvStream(srv *h3Server, st *quicsim.Stream) *h3SrvStream {
	ss, ok := pl.h3srv.Get(srv.sched, (*h3SrvStream).reset)
	if !ok {
		ss = &h3SrvStream{}
		sp := ss
		ss.dataFn = func(data []byte) { sp.onData(data) }
		ss.respondFn = func(resp Response) { sp.respond(resp) }
	}
	ss.srv = srv
	ss.st = st
	return ss
}
