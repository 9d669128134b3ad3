// Package core is the paper's primary contribution rebuilt as code: the
// measurement pipeline. It assembles a simulated Internet (Universe) from
// the corpus and CDN registry, runs the paper's visit protocol from each
// probe (Campaign), extracts the PLT / connection / wait / receive
// metrics, and drives one experiment per table and figure.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// probeAddr is the probe host's address in every universe.
const probeAddr simnet.Addr = "probe"

const (
	// accessDownBps / accessUpBps are the probe's access link rates.
	accessDownBps = 200e6
	accessUpBps   = 50e6
	// maxEvents bounds one scheduler run: a runaway guard no healthy
	// visit comes near.
	maxEvents = 200_000_000
)

// UniverseConfig assembles one probe's view of the simulated Internet.
type UniverseConfig struct {
	// Seed drives path randomness (per probe).
	Seed uint64
	// Corpus supplies pages, hostnames, and H3 support. In a sharded
	// campaign this is the shard's page-range view.
	Corpus *webgen.Corpus
	// Topology, when non-nil, is the shared campaign-wide topology
	// (content catalog, provider maps, resolver tables) built once from
	// the full corpus. It must have been built from a corpus sharing
	// this config's hostname maps; nil builds a private one from Corpus.
	Topology *Topology
	// Vantage scales path delays.
	Vantage vantage.Point
	// LossRate applies i.i.d. loss on client↔server paths (the Traffic
	// Control knob of §VI-E).
	LossRate float64
	// Impair, when non-nil, applies the fault-injection layer (bursty
	// loss, jitter, reordering, outages) to both directions of every
	// client↔server path, on top of LossRate. The struct must be
	// read-only: it is shared across paths and, in campaigns, across
	// worker goroutines; per-path mutable state lives inside simnet.
	Impair *simnet.Impairment
	// LinkTrace, when non-nil, replaces the download access link's fixed
	// rate with trace-driven variable capacity (simnet.TraceLink replay).
	// The upload direction keeps accessUpBps: cellular recordings capture
	// the downlink, and the paper's bottleneck is the last-mile download
	// path. Composes with Impair — capacity first, then the fault dice.
	// The TraceLink must be immutable; it is shared across paths and
	// worker goroutines.
	LinkTrace *simnet.TraceLink
	// EdgeTTL, when positive, gives every edge cache entry a lifetime
	// (traffic campaigns); zero means entries never expire. Edges collapse
	// concurrent misses into one origin fetch either way.
	EdgeTTL time.Duration
	// ClockOffset shifts the edges' notion of absolute time: entry expiry
	// stamps read Sched.Now()+ClockOffset. Traffic campaigns run each
	// checkpoint epoch in a fresh universe and set this to the epoch's
	// campaign-absolute start, so caches carry across universes.
	ClockOffset time.Duration
	// EdgeCaches, when non-nil, holds the edge caches by provider name,
	// beyond the universe's life: an edge serves from its provider's
	// cache there, and a new edge registers its own. A population shard
	// passes one map for all its epochs. Nil keeps each edge's cache
	// with the edge.
	EdgeCaches map[string]*cdn.Cache
	// Trace, when non-nil, records per-visit event traces: RunVisit
	// brackets each measured visit with BeginVisit/EndVisit and every
	// layer underneath (network, transports, TLS, HTTP, browser) emits
	// into it. Warm passes (RunVisitDiscard) are not traced. Nil adds
	// zero overhead anywhere.
	Trace *trace.Tracer
	// Pools, when non-nil, is the allocation arena the universe's
	// endpoints share. Campaigns pass their worker's Pools, which every
	// universe that worker runs uses in turn, one at a time on its
	// goroutine (every shard, and every epoch of a population shard);
	// nil gets a fresh one. Pool state never changes what is simulated.
	Pools *httpsim.Pools
}

// Universe is one probe's simulated Internet: the probe host, the
// resolver tying hostnames to servers, and the servers themselves —
// instantiated lazily, on the first resolver hit for an address, so a
// shard only ever builds the edges and origins its pages contact.
//
// Laziness cannot perturb determinism: every random stream a server
// consumes ("edgewait"/provider, "originwait"/site) is derived by label
// from the universe seed, so its state sequence is independent of
// instantiation order; the only construction-time draws — per-page
// origin delays from the "origindelay" stream — happen eagerly in
// corpus-page order, exactly as they did when construction was eager.
type Universe struct {
	Sched  *simnet.Scheduler
	Net    *simnet.Network
	Client *simnet.Host

	cfg      UniverseConfig
	topo     *Topology
	src      *seqrand.Source
	nodes    map[simnet.Addr]nodeClass
	edges    map[string]*cdn.Edge            // by provider name
	servers  map[simnet.Addr]*httpsim.Server // instantiated so far
	resolver browser.Resolver
	startErr error // first lazy StartServer failure, surfaced by drain
	events   int64 // scheduler events executed across drain calls
	recovery simnet.RecoveryStats

	// pools is the allocation arena shared by every endpoint (probe and
	// servers): all of them run on this universe's one scheduler
	// goroutine, so warm pools replay visits out of a steady allocation
	// footprint. RunVisit/RunVisitDiscard check its wire-arena balance
	// at each visit boundary.
	pools *httpsim.Pools

	// warmLog is the reusable scratch log for RunVisitDiscard.
	warmLog har.PageLog
}

type nodeClass struct {
	delay time.Duration
	bw    float64
}

// NewUniverse builds the probe's network and the per-shard randomness;
// servers are instantiated on first contact (see Universe).
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	if cfg.Vantage.Name == "" {
		cfg.Vantage = vantage.Points()[0]
	}
	if cfg.Corpus == nil {
		return nil, fmt.Errorf("core: NewUniverse: nil corpus")
	}
	topo := cfg.Topology
	if topo == nil {
		topo = NewTopology(cfg.Corpus)
	}
	src := seqrand.New(cfg.Seed).Sub("universe", cfg.Vantage.Name)

	u := &Universe{
		cfg:     cfg,
		topo:    topo,
		src:     src,
		nodes:   make(map[simnet.Addr]nodeClass, len(cfg.Corpus.Pages)+len(topo.providers)),
		edges:   make(map[string]*cdn.Edge, len(topo.providers)),
		servers: make(map[simnet.Addr]*httpsim.Server, len(cfg.Corpus.Pages)+len(topo.providers)),
		pools:   cfg.Pools,
	}
	if u.pools == nil {
		u.pools = &httpsim.Pools{}
	}

	// Node classes for every address the shard can reach. Edge delays
	// are pure registry + vantage arithmetic; origin delays draw from
	// the "origindelay" stream once per page, in corpus-page order —
	// the same order eager construction drew them, which is what keeps
	// fixed-seed datasets byte-identical under lazy instantiation.
	for name, p := range topo.providers {
		u.nodes[topo.edgeAddr[name]] = nodeClass{
			delay: time.Duration(float64(p.EdgeDelay) * cfg.Vantage.DelayFactor),
			bw:    p.EdgeBandwidth,
		}
	}
	originDelayRng := src.Stream("origindelay")
	for i := range cfg.Corpus.Pages {
		site := cfg.Corpus.Pages[i].Site
		delay := 15*time.Millisecond + time.Duration(originDelayRng.Int63n(int64(30*time.Millisecond)))
		u.nodes[simnet.Addr("origin."+site)] = nodeClass{
			delay: time.Duration(float64(delay) * cfg.Vantage.DelayFactor),
			bw:    100e6,
		}
	}

	// Path function: probe ↔ server with the server's delay; the
	// probe's access link is shared in each direction.
	pf := func(srcA, dst simnet.Addr) simnet.PathProps {
		var props simnet.PathProps
		switch {
		case dst == probeAddr: // download direction
			nc := u.nodes[srcA]
			props = simnet.PathProps{
				Delay:        nc.delay,
				BandwidthBps: minf(nc.bw, accessDownBps),
				LossRate:     cfg.LossRate,
				LinkID:       "access-down",
				Impair:       cfg.Impair,
				Trace:        cfg.LinkTrace,
			}
		case srcA == probeAddr: // upload direction
			nc := u.nodes[dst]
			props = simnet.PathProps{
				Delay:        nc.delay,
				BandwidthBps: accessUpBps,
				LossRate:     cfg.LossRate,
				LinkID:       "access-up",
				Impair:       cfg.Impair,
			}
		}
		return props
	}

	sched := &simnet.Scheduler{MaxEvents: maxEvents}
	net := simnet.NewNetwork(sched, pf, src.Sub("net"))
	net.SetTracer(cfg.Trace)
	u.Sched = sched
	u.Net = net
	u.Client = net.AddHost(probeAddr)

	// Resolver: hostname → serving endpoint, instantiating the backing
	// server on first contact.
	u.resolver = func(hostname string) (browser.Endpoint, bool) {
		ep, ok := topo.Endpoint(hostname)
		if !ok {
			return browser.Endpoint{}, false
		}
		if _, up := u.servers[ep.Addr]; !up {
			if err := u.startServer(ep.Addr, hostname); err != nil {
				if u.startErr == nil {
					u.startErr = err
				}
				return browser.Endpoint{}, false
			}
		}
		return ep, true
	}
	return u, nil
}

// startServer instantiates the server behind addr: a provider edge for
// CDN hostnames, the site's origin otherwise. Instantiation draws no
// randomness — the server's jitter streams are label-derived — so the
// moment it happens cannot perturb the simulation.
func (u *Universe) startServer(addr simnet.Addr, hostname string) error {
	if prov := u.topo.corpus.HostProvider[hostname]; prov != "" {
		return u.startEdge(prov, addr)
	}
	return u.startOrigin(hostname, addr)
}

func (u *Universe) startEdge(provider string, addr simnet.Addr) error {
	p := u.topo.providers[provider]
	host := u.Net.AddHost(addr)
	edge := cdn.NewEdge(cdn.EdgeConfig{
		Provider:  p,
		Sched:     u.Sched,
		Content:   u.topo.ContentSize,
		TTL:       u.cfg.EdgeTTL,
		NowOffset: u.cfg.ClockOffset,
		Cache:     u.cfg.EdgeCaches[p.Name],
		Rng:       u.src.Stream("edgewait", p.Name),
	})
	if u.cfg.EdgeCaches != nil {
		u.cfg.EdgeCaches[p.Name] = edge.Cache()
	}
	srv, err := httpsim.StartServer(host, httpsim.ServerConfig{
		Handler:      edge.Handler(),
		TLSSessions:  tlssim.NewServerSessionState(),
		QUICSessions: quicsim.NewServerSessions(),
		EnableH3:     true,
		HandshakeCPU: 500 * time.Microsecond,
		// Production QUIC stacks ship large initial windows
		// (Google uses IW32), softening the cold-start cost of
		// Alt-Svc-switched connections, and retransmit lost
		// handshake flights from a cached RTT estimate rather
		// than the RFC's conservative 1s initial PTO.
		QUIC:  quicsim.Config{InitCwndPkts: 32, PTOInit: 300 * time.Millisecond},
		Pools: u.pools,
		Trace: u.cfg.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: edge %s: %w", p.Name, err)
	}
	u.edges[p.Name] = edge
	u.servers[addr] = srv
	return nil
}

func (u *Universe) startOrigin(site string, addr simnet.Addr) error {
	host := u.Net.AddHost(addr)
	if _, ok := u.nodes[addr]; !ok {
		// A site outside the shard's page range (a cross-site origin
		// reference). No "origindelay" draw was budgeted for it, so it
		// gets the stream's mean deterministically rather than a draw
		// that would shift every later site's delay.
		u.nodes[addr] = nodeClass{
			delay: time.Duration(float64(30*time.Millisecond) * u.cfg.Vantage.DelayFactor),
			bw:    100e6,
		}
	}
	handler := cdn.NewOriginHandler(cdn.OriginConfig{
		Sched:   u.Sched,
		Content: u.topo.ContentSize,
		Rng:     u.src.Stream("originwait", site),
	})
	srv, err := httpsim.StartServer(host, httpsim.ServerConfig{
		Handler:      handler,
		TLSSessions:  tlssim.NewServerSessionState(),
		QUICSessions: quicsim.NewServerSessions(),
		EnableH3:     u.topo.corpus.H3Support[site],
		HandshakeCPU: 800 * time.Microsecond,
		QUIC:         quicsim.Config{InitCwndPkts: 32, PTOInit: 300 * time.Millisecond},
		Pools:        u.pools,
		Trace:        u.cfg.Trace,
	})
	if err != nil {
		return fmt.Errorf("core: origin %s: %w", site, err)
	}
	u.servers[addr] = srv
	return nil
}

// Events reports the total scheduler events this universe has executed —
// the simulator's unit of work, cheap to aggregate into a campaign-level
// events/sec throughput readout.
func (u *Universe) Events() int64 { return u.events }

// Close shuts down all servers.
func (u *Universe) Close() {
	for _, s := range u.servers {
		s.Close()
	}
}

// RecoveryStats returns a snapshot of the loss-recovery counters
// accumulated by browsers created via NewBrowser (and the transports
// underneath them) in this universe.
func (u *Universe) RecoveryStats() simnet.RecoveryStats { return u.recovery }

// NewBrowser creates a page loader on the probe host. Unless the config
// carries its own Recovery sink, the browser and its transports feed the
// universe's recovery counters (see RecoveryStats).
func (u *Universe) NewBrowser(cfg browser.Config) *browser.Browser {
	return browser.New(u.Client, u.browserConfig(cfg))
}

// ReuseBrowser makes b, a browser whose connections are closed, the one
// NewBrowser(cfg) returns (browser.Reset), on the storage it kept.
func (u *Universe) ReuseBrowser(b *browser.Browser, cfg browser.Config) {
	b.Reset(u.Client, u.browserConfig(cfg))
}

// browserConfig binds cfg to this universe: its resolver, and its
// recovery counters, tracer and pools where cfg names none.
func (u *Universe) browserConfig(cfg browser.Config) browser.Config {
	cfg.Resolver = u.resolver
	if cfg.Recovery == nil {
		cfg.Recovery = &u.recovery
	}
	if cfg.Trace == nil {
		cfg.Trace = u.cfg.Trace
	}
	if cfg.Pools == nil {
		cfg.Pools = u.pools
	}
	return cfg
}

// RunVisit drives one page load to completion and returns its log. When
// the universe carries a tracer, the visit's events are recorded between
// BeginVisit and EndVisit and flushed to the tracer's sink on success; a
// visit whose trace outgrows the tracer's ceiling fails.
func (u *Universe) RunVisit(b *browser.Browser, page *webgen.Page) (*har.PageLog, error) {
	return u.runVisit(b, page, &har.PageLog{}, u.cfg.Trace)
}

// RunVisitDiscard drives one page load whose log is thrown away (a cache
// warming pass). The entries land in a universe-owned scratch log reused
// across calls, so warm visits allocate no per-visit log state.
func (u *Universe) RunVisitDiscard(b *browser.Browser, page *webgen.Page) error {
	_, err := u.runVisit(b, page, &u.warmLog, nil)
	return err
}

// runVisit loads page into log with the scheduler to itself. tr brackets
// the visit (a nil tracer brackets nothing).
func (u *Universe) runVisit(b *browser.Browser, page *webgen.Page, log *har.PageLog, tr *trace.Tracer) (*har.PageLog, error) {
	tr.BeginVisit(page.Site, u.Sched.Now())
	completed := false
	b.Visit(page, log, func(*har.PageLog) {
		completed = true
		b.CloseAll()
	})
	err := u.drain()
	if err == nil && !completed {
		err = errors.New("never completed")
	}
	if err != nil {
		tr.Abort()
		return nil, fmt.Errorf("core: visit %s: %w", page.Site, err)
	}
	if err := tr.EndVisit(log.PLT); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Visit boundary: the scheduler has drained and the browser closed
	// every connection, so every wire buffer is back. One still
	// outstanding now was dropped without being returned.
	if bal := u.pools.Rewind(); bal != 0 {
		return nil, fmt.Errorf("core: visit %s: arena balance %d", page.Site, bal)
	}
	return log, nil
}

// drain runs the scheduler until no event is left, counts the events it
// executed, and reports why the run cannot be trusted: a scheduler error
// first, else the first lazy server-start failure.
func (u *Universe) drain() error {
	n, err := u.Sched.Run()
	u.events += int64(n)
	if err == nil {
		err = u.startErr
	}
	return err
}

func minf(a, b float64) float64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a < b {
		return a
	}
	return b
}

func slug(name string) string {
	out := strings.ToLower(name)
	return strings.ReplaceAll(out, ".", "")
}
