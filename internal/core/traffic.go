package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/bufpool"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/traffic"
	"h3cdn/internal/webgen"
)

// This file is the open-loop visit source: where runScripted walks every
// corpus page twice (warm + measured), runPopulation lets a seeded user
// population decide what gets visited and when. Sessions arrive by a
// Poisson process, browse Zipf-popular pages with think times, and
// contend on shared TTL edge caches — hit rates, resumption fractions,
// stampedes, and the cold/warm PLT split all emerge rather than being
// scripted.
//
// The shard runs in checkpoint epochs. Each epoch is simulated in a
// fresh universe whose randomness derives from (shard seed, epoch), so
// nothing implicit survives an epoch boundary: the only carried state is
// the explicit set {one edge cache per provider, per-user Alt-Svc
// memory, the campaign clock, the visit sink's state}. The shard keeps
// that set in memory for its whole life, each epoch's edges serving
// from its caches (UniverseConfig.EdgeCaches), and serializes it only
// into a checkpoint. A killed-and-resumed run is byte-identical to an
// uninterrupted one because each piece round-trips through the file: a
// cache restored from its dump answers every later lookup as the dumped
// one would (cdn's TestCacheDumpRestoreRoundTrip), and user memory and
// sink state reload as they were saved. The shard's allocation pools
// cross epochs too, warm, but they are not state: nothing simulated
// reads them, so a resumed shard that starts them cold reproduces the
// same bytes.

// checkpointDigest fingerprints every campaign setting that shapes a
// population shard's results beyond its seed and its place in the shard
// decomposition (pinned by the checkpoint's Seed field and file name):
// resuming under any other value would splice two campaigns into a
// dataset no single config produces. CheckpointDir and HaltAfterEpochs
// only say where and how often a run stops, so they are left out.
func (c CampaignConfig) checkpointDigest(corpusPages int) string {
	tc := c.Traffic.WithDefaults()
	tc.CheckpointDir, tc.HaltAfterEpochs = "", 0
	h := sha256.New()
	fmt.Fprintf(h, "%+v|pages=%d|loss=%v|retain=%s|retries=%d",
		tc, corpusPages, c.pathLoss(), c.Retention, c.FetchRetries)
	if c.Impairment != nil {
		fmt.Fprintf(h, "|impair=%+v", *c.Impairment)
	}
	if tl := c.LinkTrace; tl != nil {
		fmt.Fprintf(h, "|link=%s/%d/%v/%v", tl.Name(), tl.Epochs(), tl.Period(), tl.MeanBps())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// trafficEngine drives one epoch's sessions on one universe. Everything
// here runs on the universe's scheduler goroutine (browser callbacks and
// timer events), so plain fields need no synchronization.
type trafficEngine struct {
	u       *Universe
	tc      traffic.Config
	browser browser.Config
	corpus  *webgen.Corpus
	sink    *visitSink

	clock  time.Duration // campaign-absolute time of scheduler zero
	endAbs time.Duration // epoch window end, campaign-absolute

	inFlight int
	counters *traffic.Counters
	epoch    *traffic.EpochStat
	userMem  map[int][]string // shard-local user → learned Alt-Svc hosts
	pools    *sessionPools
}

// sessionPools is what a population shard reuses across its sessions
// and epochs, and drops with the shard: the browsers of ended sessions.
// Nothing simulated reads it, so a resumed shard that starts it empty
// reproduces the same bytes.
type sessionPools struct {
	// browsers holds the browsers endSession retired, under the
	// Recycler's stamp rule: endSession runs inside the browser's own
	// callbacks, so the browser is handed out again only from a later
	// event. Each is detached (detachBrowser) when it is promoted, so
	// none keeps a finished epoch's universe alive.
	browsers bufpool.Recycler[*browser.Browser]
}

// detachBrowser is the browser recycler's reset.
func detachBrowser(b *browser.Browser) { b.Reset(nil, browser.Config{}) }

// startSession begins one user's browsing session: a browser as New
// returns it (TLS tickets and QUIC tokens live for the session, like a
// browser restart), recycled from an ended session when one is free,
// seeded with the user's durable memory — the Alt-Svc hosts they learned
// in previous sessions, which is what lets a returning user open with H3.
func (en *trafficEngine) startSession(user int, sess *traffic.Session) {
	en.counters.SessionsStarted++
	b, ok := en.pools.browsers.Get(en.u.Sched, detachBrowser)
	if ok {
		en.u.ReuseBrowser(b, en.browser)
	} else {
		b = en.u.NewBrowser(en.browser)
	}
	b.ImportAltSvc(en.userMem[user])
	en.visit(user, b, sess)
}

// visit runs the session's next page load, then schedules the think gap
// before the one after, until the session plan runs out, the epoch
// window closes, or the in-flight bound sheds the visit.
func (en *trafficEngine) visit(user int, b *browser.Browser, sess *traffic.Session) {
	if en.u.Sched.Now()+en.clock >= en.endAbs {
		// The window closed while this session thought or loaded. The
		// remainder is truncated — not shed, and not generated: the next
		// epoch's arrivals carry the offered load from here.
		en.endSession(user, b)
		return
	}
	en.counters.VisitsGenerated++
	if en.inFlight >= en.tc.MaxInFlight {
		// Open-loop overload: the PoP is saturated, so the visit is shed
		// (and the user gives up) instead of queueing invisibly.
		en.counters.VisitsShed++
		en.endSession(user, b)
		return
	}
	en.inFlight++
	page := &en.corpus.Pages[sess.NextPage()]
	b.Visit(page, en.sink.newLog(), func(l *har.PageLog) {
		en.inFlight--
		en.counters.VisitsCompleted++
		en.epoch.Visits++
		en.sink.fold(l, trafficVisitSample(l))
		sess.VisitsLeft--
		if sess.VisitsLeft <= 0 {
			en.endSession(user, b)
			return
		}
		// Connections are visit-scoped (the campaign convention — see
		// Universe.runVisit): close them through the think gap, but keep
		// the browser's session caches, so the next visit's dials resume
		// with the tickets and tokens this one banked. That
		// redial-with-ticket is the population's emergent 0-RTT fraction.
		b.CloseAll()
		en.u.Sched.After(sess.Think(), func() { en.visit(user, b, sess) })
	})
}

// endSession banks the user's durable memory and the session's
// connection accounting, closes the browser's connections and retires
// the browser for a later session.
func (en *trafficEngine) endSession(user int, b *browser.Browser) {
	if hosts := b.ExportAltSvc(); len(hosts) > 0 {
		en.userMem[user] = hosts
	}
	st := b.Stats()
	en.counters.ConnsOpened += st.ConnsOpened
	en.counters.ResumedConns += st.ResumedConns
	b.CloseAll()
	en.pools.browsers.Retire(b, en.u.Sched)
}

// restoreCheckpoint loads the checkpoint at path into sink and caches
// (by provider) and returns it for the rest of what it carries, or
// (nil, nil) when there is none. It rejects a checkpoint written under
// another shard seed or config digest, and one whose contents the shard
// could not continue from: an edge cache of an unknown provider or two
// of one provider, a sink whose sketches would not merge into the
// campaign's (Merge panics on a differing α or histogram bounds), that
// lacks the accumulator or, under sampled retention, the reservoir, or
// whose epoch fields lie outside the campaign's epochs.
func restoreCheckpoint(path string, seed uint64, digest string, epochs int, sink *visitSink, caches map[string]*cdn.Cache) (*traffic.Checkpoint, error) {
	cp, err := traffic.Load(path)
	if err != nil || cp == nil {
		return nil, err
	}
	if cp.Seed != seed {
		return nil, fmt.Errorf("core: checkpoint %s was written under seed %d, campaign shard seed is %d", path, cp.Seed, seed)
	}
	if cp.Config != digest {
		return nil, fmt.Errorf("core: checkpoint %s was written under campaign config %s, this campaign's config is %s", path, cp.Config, digest)
	}
	if cp.Epoch < 0 || cp.Epoch > epochs {
		return nil, fmt.Errorf("core: checkpoint %s resumes at epoch %d of %d", path, cp.Epoch, epochs)
	}
	restored := make(map[string]*cdn.Cache, len(cp.Edges))
	for _, ec := range cp.Edges {
		if _, ok := cdn.ProviderByName(ec.Provider); !ok {
			return nil, fmt.Errorf("core: checkpoint %s caches unknown provider %q", path, ec.Provider)
		}
		if restored[ec.Provider] != nil {
			return nil, fmt.Errorf("core: checkpoint %s caches provider %q twice", path, ec.Provider)
		}
		c := cdn.NewCache(0)
		c.Restore(ec.Entries)
		restored[ec.Provider] = c
	}
	var st sinkState
	if err := json.Unmarshal(cp.Sink, &st); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s sink state: %w", path, err)
	}
	switch {
	case st.Acc == nil:
		err = errors.New("no metrics")
	case st.Reservoir == nil && sink.Reservoir != nil:
		err = errors.New("no retention reservoir")
	default:
		err = sink.Acc.Compatible(st.Acc)
	}
	if st.Report != nil {
		for _, es := range st.Report.Epochs {
			if es.Epoch < 0 || es.Epoch >= cp.Epoch {
				err = fmt.Errorf("report of epoch %d", es.Epoch)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint %s sink state: %w", path, err)
	}
	sink.sinkState = st
	maps.Copy(caches, restored)
	return cp, nil
}

// runPopulation is the open-loop visit source: the user slice
// [job.lo, job.hi) browsing the full corpus against this shard's own
// edges (an independent PoP), for the configured horizon, in checkpoint
// epochs. One scheduler drain covers a whole epoch, with visits
// overlapping up to MaxInFlight. Every finished visit goes to sink, as
// does the arrival and edge-contention accounting (sink.Report).
func runPopulation(cfg CampaignConfig, topo *Topology, job shardJob, sink *visitSink, pools *httpsim.Pools) error {
	return runEpochs(cfg, topo, job, sink, pools, &sessionPools{}, nil)
}

// runEpochs runs runPopulation's epochs with every epoch's universe on
// pools and its sessions on sp, calling epochDone (when non-nil) with
// each universe once it closed.
func runEpochs(cfg CampaignConfig, topo *Topology, job shardJob, sink *visitSink, pools *httpsim.Pools, sp *sessionPools, epochDone func(*Universe)) error {
	tc := cfg.Traffic.WithDefaults()
	corpus := topo.Corpus()
	seed := shardSeed(cfg, job)
	shardUsers := job.hi - job.lo
	// The shard offers its population-proportional slice of the load.
	base := tc.ArrivalRate * float64(shardUsers) / float64(tc.Users)

	var (
		startEpoch int
		clock      time.Duration
		userMem    = make(map[int][]string)
		caches     = make(map[string]*cdn.Cache) // the shard's edge caches, by provider
		ckptPath   string
		digest     string // of the campaign config, see checkpointDigest
	)
	if tc.CheckpointDir != "" {
		ckptPath = filepath.Join(tc.CheckpointDir, "traffic_"+job.slug()+".ckpt.json")
		digest = cfg.checkpointDigest(len(corpus.Pages))
		cp, err := restoreCheckpoint(ckptPath, seed, digest, tc.Epochs(), sink, caches)
		if err != nil {
			return err
		}
		if cp != nil {
			startEpoch, clock = cp.Epoch, cp.Clock
			for _, um := range cp.Users {
				userMem[um.User-job.lo] = um.AltSvc
			}
		}
	}

	if sink.Report == nil {
		sink.Report = &traffic.Report{}
	}
	rep := sink.Report
	epochs := tc.Epochs()
	for e := startEpoch; e < epochs; e++ {
		start := time.Duration(e) * tc.EpochInterval
		end := min(start+tc.EpochInterval, tc.Duration)
		clock = max(clock, start)
		// The epoch's universe seed is a pure function of (shard, epoch),
		// so replaying epoch e — after a resume or not — replays its
		// randomness exactly.
		uc := cfg.universeConfig(job, seqrand.New(seed).StreamSeed("epoch", strconv.Itoa(e)), corpus, topo)
		uc.EdgeTTL = tc.CacheTTL
		uc.ClockOffset = clock
		uc.EdgeCaches = caches
		uc.Pools = pools
		u, err := NewUniverse(uc)
		if err != nil {
			return err
		}

		es := &traffic.EpochStat{Epoch: e}
		en := &trafficEngine{
			u: u, tc: tc, browser: cfg.browserConfig(job.mode), corpus: corpus, sink: sink,
			clock: clock, endAbs: end,
			counters: &rep.Counters, epoch: es, userMem: userMem, pools: sp,
		}

		// Epoch workload: arrivals and session plans are label-derived
		// from (seed, epoch, arrival index) — independent of everything
		// the simulation does with them.
		src := seqrand.New(seed).Sub("traffic")
		for i, a := range traffic.Arrivals(src, e, base, shardUsers, tc, start, end) {
			user := a.User
			sess := traffic.NewSession(
				src.Stream("session", strconv.Itoa(e), seqrand.Label("a", i)),
				len(corpus.Pages), tc)
			// When a long previous epoch overran this arrival's start, it
			// fires immediately rather than rewinding virtual time.
			u.Sched.After(max(a.At-clock, 0), func() { en.startSession(user, sess) })
		}
		err = u.drain()
		if err == nil && en.inFlight != 0 {
			err = fmt.Errorf("%d visits never completed", en.inFlight)
		}
		// Visits overlap, so the wire-buffer leak rule a scripted shard
		// checks at each visit boundary is checked here, once per epoch.
		if bal := u.pools.Rewind(); err == nil && bal != 0 {
			err = fmt.Errorf("arena balance %d", bal)
		}
		if err != nil {
			u.Close()
			return fmt.Errorf("traffic epoch %d: %w", e, err)
		}

		// Harvest the epoch's counters. Edge map iteration order is
		// arbitrary but the sums are commutative integers.
		sink.harvest(u)
		for _, edge := range u.edges {
			es.CacheHits += edge.CacheHits()
			es.CacheMisses += edge.CacheMisses()
			es.CacheExpired += edge.CacheExpired()
			es.Stampedes += edge.Stampedes()
		}
		rep.Counters.CacheHits += es.CacheHits
		rep.Counters.CacheMisses += es.CacheMisses
		rep.Counters.CacheExpired += es.CacheExpired
		rep.Counters.Stampedes += es.Stampedes
		rep.Epochs = append(rep.Epochs, *es)

		// Advance the campaign clock to the window end — never to the
		// drain time. Sessions overrunning the window finish in universe
		// time (their cache writes keep those later absolute stamps), but
		// the next window still opens on schedule: jumping the clock to
		// the drain instant would serialize the whole shard behind its
		// single slowest straggler visit, punching arrival-less holes
		// into the epoch series whenever one page load hits the latency
		// tail.
		clock = end
		u.Close()
		// The epoch's scheduler runs no more: free what it retired, so
		// that no record or browser keeps its universe alive into the
		// next epoch.
		pools.Promote()
		sp.browsers.Promote(detachBrowser)
		if epochDone != nil {
			epochDone(u)
		}

		if ckptPath != "" {
			users := make([]traffic.UserMemory, 0, len(userMem))
			for uidx, hosts := range userMem {
				users = append(users, traffic.UserMemory{User: job.lo + uidx, AltSvc: hosts})
			}
			sort.Slice(users, func(i, j int) bool { return users[i].User < users[j].User })
			// Expired entries are dumped as-is: the next epoch's edge
			// discovers the lapse on touch, exactly as a live cache would.
			// Sorted provider order keeps map iteration out of the file.
			providers := make([]string, 0, len(caches))
			for nm := range caches {
				providers = append(providers, nm)
			}
			sort.Strings(providers)
			var edges []traffic.EdgeCache
			for _, nm := range providers {
				if c := caches[nm]; c.Len() > 0 {
					edges = append(edges, traffic.EdgeCache{Provider: nm, Entries: c.Dump()})
				}
			}
			state, err := json.Marshal(&sink.sinkState)
			if err != nil {
				return fmt.Errorf("traffic checkpoint sink state: %w", err)
			}
			err = traffic.Save(ckptPath, &traffic.Checkpoint{
				Seed: seed, Config: digest, Epoch: e + 1, Clock: clock,
				Users: users, Edges: edges, Sink: state,
			})
			if err != nil {
				return err
			}
		}
		if tc.HaltAfterEpochs > 0 && e+1-startEpoch >= tc.HaltAfterEpochs && e+1 < epochs {
			// Deliberate mid-campaign halt (resume-testing kill switch):
			// the checkpoint just written is the hand-off point.
			break
		}
	}
	return nil
}
