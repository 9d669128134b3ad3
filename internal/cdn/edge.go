package cdn

import (
	"math/rand"
	"strings"
	"time"

	"h3cdn/internal/httpsim"
	"h3cdn/internal/simnet"
)

// ContentFunc resolves a resource's body size. ok=false yields a 404.
type ContentFunc func(host, path string) (size int, ok bool)

// Server processing costs. Jitter is drawn only when a config carries an
// Rng.
const (
	// edgeHitWait is an edge's processing time for a cache hit.
	edgeHitWait = 2 * time.Millisecond
	// edgeMissPenalty is the extra delay of an edge's origin fetch on a
	// cache miss.
	edgeMissPenalty = 80 * time.Millisecond
	// edgeWaitJitter bounds the uniform extra wait U[0, edgeWaitJitter).
	edgeWaitJitter = time.Millisecond
	// originWait is an origin server's per-request processing time.
	originWait = 15 * time.Millisecond
	// originWaitJitter bounds the origin's uniform extra wait.
	originWaitJitter = 4 * time.Millisecond
	// h3WaitOverhead is the extra per-request server compute under H3
	// (QPACK, the UDP path), at edges and origins alike: the paper
	// observes a median wait reduction below zero (§VI-B).
	h3WaitOverhead = 8 * time.Millisecond
)

// EdgeConfig configures one CDN edge server's request handling.
type EdgeConfig struct {
	// Provider supplies the response-header signature.
	Provider Provider
	// Sched drives simulated processing delays.
	Sched *simnet.Scheduler
	// Content resolves resource sizes.
	Content ContentFunc
	// CacheCapacity bounds the edge LRU cache (entries). Default 8192.
	CacheCapacity int
	// Cache, when non-nil, is the cache the edge serves from, filled by
	// an earlier edge of the same provider; CacheCapacity is then
	// unused. Nil gives the edge an empty cache of its own.
	Cache *Cache
	// Rng drives the wait jitter; nil draws none.
	Rng *rand.Rand
	// TTL is a cached entry's lifetime: a positive TTL stamps every
	// entry with an absolute expiry (fill time + TTL), and a request
	// arriving past it is a miss again. Zero means entries never expire
	// (the §III-B closed-loop protocol). Either way concurrent misses
	// for the same resource collapse into one origin fetch
	// (single-flight): the first miss is the leader and pays the full
	// edgeMissPenalty; overlapping requests join as waiters, answered
	// the moment the leader's fetch lands, and are counted as stampede
	// joins.
	TTL time.Duration
	// NowOffset is added to the scheduler clock when stamping and
	// checking expiries — the campaign-absolute virtual time of this
	// edge's epoch start, for engines that rebuild universes (and their
	// schedulers, which restart at zero) across checkpoint epochs.
	NowOffset time.Duration
}

// resourceKey identifies a cached resource without concatenating the
// host and path strings on every request.
type resourceKey struct {
	host, path string
}

// originFlight is one in-progress origin fetch under single-flight
// collapsing: when it lands, it answers the leader and then every
// waiter. Flights are recycled per Edge.
type originFlight struct {
	e       *Edge
	key     resourceKey
	miss    httpsim.Response
	leader  *httpsim.Responder
	waiters []flightWaiter
}

// flightWaiter is a request that joined a flight: its responder answers
// wait after the fetch lands.
type flightWaiter struct {
	r    *httpsim.Responder
	wait time.Duration
}

// Edge is a CDN edge server's request-handling state (cache plus
// counters). One Edge backs one simnet host via httpsim.StartServer.
type Edge struct {
	cfg   EdgeConfig
	cache *Cache

	// inflight tracks origin fetches in progress, keyed by resource:
	// concurrent misses join the flight instead of fetching.
	// freeFlights recycles landed flights.
	inflight    map[resourceKey]*originFlight
	freeFlights []*originFlight

	// hitHeaders/missHeaders are the two canonical response-header maps,
	// built once: httpsim treats Response.Header as read-only, so every
	// response shares them instead of allocating a map per request.
	hitHeaders  map[string]string
	missHeaders map[string]string

	stampedes int64

	// hits, misses and expired count this edge's cache lookups; expired
	// lapses are a subset of misses.
	hits, misses, expired int64
}

// NewEdge creates the edge state and returns it with its handler.
func NewEdge(cfg EdgeConfig) *Edge {
	e := &Edge{cfg: cfg, cache: cfg.Cache}
	if e.cache == nil {
		e.cache = NewCache(cfg.CacheCapacity)
	}
	e.inflight = make(map[resourceKey]*originFlight)
	e.hitHeaders = e.buildHeaders(true)
	e.missHeaders = e.buildHeaders(false)
	return e
}

// Cache returns the cache the edge serves from.
func (e *Edge) Cache() *Cache { return e.cache }

// CacheHits / CacheMisses / CacheExpired expose this edge's cache
// counters for per-epoch traffic accounting. Expired evictions are a
// subset of misses (a TTL lapse is discovered as a miss).
func (e *Edge) CacheHits() int64    { return e.hits }
func (e *Edge) CacheMisses() int64  { return e.misses }
func (e *Edge) CacheExpired() int64 { return e.expired }

// Stampedes reports how many requests joined an in-progress origin
// fetch instead of launching their own (single-flight collapsing). Each
// join is one origin fetch the edge did not make.
func (e *Edge) Stampedes() int64 { return e.stampedes }

// now is the campaign-absolute virtual time (scheduler clock plus the
// epoch offset), the timebase expiries are stamped in.
func (e *Edge) now() time.Duration { return e.cfg.Sched.Now() + e.cfg.NowOffset }

// lookup checks the cache for key at the campaign-absolute time and
// counts the outcome.
func (e *Edge) lookup(key resourceKey) bool {
	hit, expired := e.cache.ContainsAt(key, e.now())
	if hit {
		e.hits++
	} else {
		e.misses++
	}
	if expired {
		e.expired++
	}
	return hit
}

// Handler returns the httpsim handler serving this edge.
func (e *Edge) Handler() httpsim.Handler {
	return func(ctx *httpsim.ServerContext, respond func(httpsim.Response)) {
		r := ctx.Responder(respond)
		size, ok := e.cfg.Content(ctx.Req.Host, ctx.Req.Path)
		if !ok {
			r.After(e.cfg.Sched, edgeHitWait, httpsim.Response{
				Status: 404,
				Header: e.headers(false),
			})
			return
		}
		key := resourceKey{ctx.Req.Host, ctx.Req.Path}
		wait := edgeHitWait
		if ctx.Protocol == httpsim.H3 {
			wait += h3WaitOverhead
		}
		e.handleTTL(r, key, size, wait)
	}
}

// handleTTL serves one request with single-flight miss collapsing.
// baseWait is the hit-processing cost (edgeHitWait plus any H3 overhead)
// every answer pays.
//
// Hits answer after baseWait (+jitter). The first miss for a resource
// becomes the flight leader: it pays baseWait + edgeMissPenalty (+jitter),
// then fills the cache — stamping expiry fill-time + TTL, or 0 (never)
// when TTL is 0 — and answers itself and every waiter. Requests that
// miss while the leader's fetch is in progress join as waiters: they
// draw no jitter (their timing is the leader's) and answer baseWait
// after the fill, with miss headers — a collapsed request still waited
// on the origin, it just didn't ask it again. Waiter responses carry the leader's completion order, so the
// whole dance is deterministic in virtual time. A waiter holds its
// responder, which writes nothing if its connection has been recycled
// by the time the flight lands.
func (e *Edge) handleTTL(r *httpsim.Responder, key resourceKey, size int, baseWait time.Duration) {
	if e.lookup(key) {
		r.After(e.cfg.Sched, baseWait+jitter(e.cfg.Rng, edgeWaitJitter), httpsim.Response{
			Status:   200,
			Header:   e.headers(true),
			BodySize: size,
		})
		return
	}
	if fl := e.inflight[key]; fl != nil {
		e.stampedes++
		fl.waiters = append(fl.waiters, flightWaiter{r, baseWait})
		return
	}
	var fl *originFlight
	if n := len(e.freeFlights); n > 0 {
		fl = e.freeFlights[n-1]
		e.freeFlights = e.freeFlights[:n-1]
	} else {
		fl = &originFlight{e: e}
	}
	fl.key, fl.leader = key, r
	fl.miss = httpsim.Response{Status: 200, Header: e.headers(false), BodySize: size}
	e.inflight[key] = fl
	e.cfg.Sched.AfterArg(baseWait+edgeMissPenalty+jitter(e.cfg.Rng, edgeWaitJitter), landFlight, fl)
}

// landFlight fills the cache with a flight's resource and answers the
// leader, then every waiter, in join order.
func landFlight(x any) {
	fl := x.(*originFlight)
	e := fl.e
	var expiresAt time.Duration
	if e.cfg.TTL > 0 {
		expiresAt = e.now() + e.cfg.TTL
	}
	e.cache.AddAt(fl.key, expiresAt)
	delete(e.inflight, fl.key)
	fl.leader.Respond(fl.miss)
	for _, w := range fl.waiters {
		w.r.After(e.cfg.Sched, w.wait, fl.miss)
	}
	clear(fl.waiters)
	*fl = originFlight{e: e, waiters: fl.waiters[:0]}
	e.freeFlights = append(e.freeFlights, fl)
}

// jitter draws a server's extra wait, U[0, max), or none without an Rng.
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	if rng == nil {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}

// headers returns the canonical response signature for hit/miss, which
// internal/locedge classifies. Shared and read-only.
func (e *Edge) headers(hit bool) map[string]string {
	if hit {
		return e.hitHeaders
	}
	return e.missHeaders
}

// buildHeaders synthesizes the provider's response signature.
func (e *Edge) buildHeaders(hit bool) map[string]string {
	h := map[string]string{
		"server": e.cfg.Provider.ServerHeader,
	}
	if e.cfg.Provider.ViaHeader != "" {
		h["via"] = e.cfg.Provider.ViaHeader
	}
	if e.cfg.Provider.ExtraHeader != "" {
		if k, v, ok := strings.Cut(e.cfg.Provider.ExtraHeader, "="); ok {
			h[k] = v
		}
	}
	if hit {
		h["x-cache"] = "HIT"
	} else {
		h["x-cache"] = "MISS"
	}
	return h
}

// OriginConfig configures a non-CDN origin web server.
type OriginConfig struct {
	Sched *simnet.Scheduler
	// Content resolves resource sizes.
	Content ContentFunc
	// Rng drives the wait jitter; nil draws none.
	Rng *rand.Rand
}

// NewOriginHandler returns a handler for a site's own (non-CDN) server.
// Its headers carry no CDN signature, so locedge classifies its entries
// as non-CDN.
func NewOriginHandler(cfg OriginConfig) httpsim.Handler {
	// One canonical header map for every response; read-only downstream.
	originHeaders := map[string]string{"server": "nginx/1.22"}
	return func(ctx *httpsim.ServerContext, respond func(httpsim.Response)) {
		size, ok := cfg.Content(ctx.Req.Host, ctx.Req.Path)
		resp := httpsim.Response{Status: 200, Header: originHeaders}
		if !ok {
			resp.Status = 404
		} else {
			resp.BodySize = size
		}
		wait := originWait
		if ctx.Protocol == httpsim.H3 {
			wait += h3WaitOverhead
		}
		ctx.Responder(respond).After(cfg.Sched, wait+jitter(cfg.Rng, originWaitJitter), resp)
	}
}
