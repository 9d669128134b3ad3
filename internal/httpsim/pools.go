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
// Callers must invoke Rewind at visit boundaries only (scheduler
// drained, all connections closed); see DESIGN.md §4.17.
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

	// Canonical decode caches. Parsed requests and response header maps
	// are keyed by their wire bytes and shared by every consumer: the
	// corpus re-sends identical header blocks every visit, and consumers
	// (handlers, HAR entries) only ever read them. Never mutate a
	// Request or header map obtained from these caches.
	reqCache  map[string]*Request
	respCache map[string]map[string]string

	hdrBuf      []byte   // header-block assembly scratch
	keyBuf      []byte   // respCache key assembly scratch
	sortScratch []string // sorted header keys scratch

	h2Pendings bufpool.FreeList[*h2Pending]
	h2Resps    bufpool.FreeList[*h2Response]

	// H3 stream states are handed out from the free lists and stay on
	// the live lists until Rewind.
	h3cliFree bufpool.FreeList[*h3Stream]
	h3cliLive []*h3Stream
	h3srvFree bufpool.FreeList[*h3SrvStream]
	h3srvLive []*h3SrvStream
}

// orPrivate is every Dial*/StartServer's defaulting step: an endpoint
// configured without pools gets a private set, so nothing past this
// point sees a nil *Pools. A private set is never rewound; what it
// quarantines stays quarantined for the endpoint's lifetime.
func orPrivate(pl *Pools) *Pools {
	if pl == nil {
		return &Pools{}
	}
	return pl
}

// Rewind resets every per-visit pool at a visit boundary and returns
// the buffer arena's outstanding-buffer count (non-zero means a Get/Put
// leak). Only call once the scheduler has drained and the browser has
// closed every connection: pooled stream states may be touched by
// scheduled callbacks until then.
func (pl *Pools) Rewind() int64 {
	pl.TCP.Rewind()
	pl.QUIC.Rewind()
	for i, st := range pl.h3cliLive {
		st.reset()
		pl.h3cliFree.Put(st)
		pl.h3cliLive[i] = nil
	}
	pl.h3cliLive = pl.h3cliLive[:0]
	for i, ss := range pl.h3srvLive {
		ss.reset()
		pl.h3srvFree.Put(ss)
		pl.h3srvLive[i] = nil
	}
	pl.h3srvLive = pl.h3srvLive[:0]
	return pl.Arena.Stats().InUse
}

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

// getH3Stream hands out a client stream state. Pooled states live until
// the visit-boundary Rewind rather than being recycled on completion: a
// late transport event (duplicate retransmission after finish) may
// still invoke the stream's data callback, which must find the state it
// was bound to, not a reused one.
func (pl *Pools) getH3Stream(c *h3Client, req *Request, ev RequestEvents) *h3Stream {
	st, ok := pl.h3cliFree.Get()
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
	pl.h3cliLive = append(pl.h3cliLive, st)
	return st
}

// getH3SrvStream hands out a server stream state bound to one QUIC
// stream; same live-until-Rewind discipline as getH3Stream.
func (pl *Pools) getH3SrvStream(srv *h3Server, st *quicsim.Stream) *h3SrvStream {
	ss, ok := pl.h3srvFree.Get()
	if !ok {
		ss = &h3SrvStream{}
		sp := ss
		ss.dataFn = func(data []byte) { sp.onData(data) }
		ss.respondFn = func(resp Response) { sp.respond(resp) }
	}
	ss.srv = srv
	ss.st = st
	pl.h3srvLive = append(pl.h3srvLive, ss)
	return ss
}
