package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
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
// the explicit set {edge cache dumps, per-user Alt-Svc memory, the
// campaign clock, the visit sink's state}. That is exactly what a
// checkpoint records — which makes a killed-and-resumed run
// byte-identical to an uninterrupted one by construction, because the
// uninterrupted run crosses epochs through the very same dump/restore
// path.

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
		tc, corpusPages, c.LossRate, c.Retention, c.FetchRetries)
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
}

// startSession begins one user's browsing session: a fresh browser (TLS
// tickets and QUIC tokens live for the session, like a browser restart)
// seeded with the user's durable memory — the Alt-Svc hosts they learned
// in previous sessions, which is what lets a returning user open with H3.
func (en *trafficEngine) startSession(user int, sess *traffic.Session) {
	en.counters.SessionsStarted++
	b := en.u.NewBrowser(en.browser)
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
	b.Visit(page, &har.PageLog{}, func(l *har.PageLog) {
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
// connection accounting, then closes the browser's connections.
func (en *trafficEngine) endSession(user int, b *browser.Browser) {
	if hosts := b.ExportAltSvc(); len(hosts) > 0 {
		en.userMem[user] = hosts
	}
	st := b.Stats()
	en.counters.ConnsOpened += st.ConnsOpened
	en.counters.ResumedConns += st.ResumedConns
	b.CloseAll()
}

// runPopulation is the open-loop visit source: the user slice
// [job.lo, job.hi) browsing the full corpus against this shard's own
// edges (an independent PoP), for the configured horizon, in checkpoint
// epochs. One scheduler drain covers a whole epoch, with visits
// overlapping up to MaxInFlight, so — unlike the scripted source — there
// is no visit boundary at which the arena could rewind. Every finished
// visit goes to sink, as does the arrival and edge-contention accounting
// (sink.Report).
func runPopulation(cfg CampaignConfig, topo *Topology, job shardJob, sink *visitSink) error {
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
		edges      []traffic.EdgeCache // carried cache dumps, sorted by provider
		ckptPath   string
		digest     string // of the campaign config, see checkpointDigest
	)
	if tc.CheckpointDir != "" {
		ckptPath = filepath.Join(tc.CheckpointDir, "traffic_"+job.slug()+".ckpt.json")
		digest = cfg.checkpointDigest(len(corpus.Pages))
		cp, err := traffic.Load(ckptPath)
		if err != nil {
			return err
		}
		if cp != nil {
			if cp.Seed != seed {
				return fmt.Errorf("core: checkpoint %s was written under seed %d, campaign shard seed is %d", ckptPath, cp.Seed, seed)
			}
			if cp.Config != digest {
				return fmt.Errorf("core: checkpoint %s was written under campaign config %s, this campaign's config is %s", ckptPath, cp.Config, digest)
			}
			if err := json.Unmarshal(cp.Sink, &sink.sinkState); err != nil {
				return fmt.Errorf("core: checkpoint %s sink state: %w", ckptPath, err)
			}
			startEpoch, clock, edges = cp.Epoch, cp.Clock, cp.Edges
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
		u, err := NewUniverse(uc)
		if err != nil {
			return err
		}
		// Restore carried cache contents before any visit runs.
		for _, ec := range edges {
			edge, err := u.WarmEdge(ec.Provider)
			if err != nil {
				u.Close()
				return err
			}
			edge.RestoreCache(ec.Entries)
		}

		es := &traffic.EpochStat{Epoch: e}
		en := &trafficEngine{
			u: u, tc: tc, browser: cfg.browserConfig(job.mode), corpus: corpus, sink: sink,
			clock: clock, endAbs: end,
			counters: &rep.Counters, epoch: es, userMem: userMem,
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
		// Overlapping visits never rewind the epoch's arena, so the wire
		// buffer leak rule is checked once, on the drained universe.
		if bal := u.pools.Arena.Stats().InUse; err == nil && bal != 0 {
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

		// Dump caches for the next epoch (and the checkpoint). Expired
		// entries are carried as-is: the next epoch's edge discovers the
		// lapse on touch, exactly as a live cache would. Sorted provider
		// order keeps map iteration out of the replay and the checkpoint.
		edges = nil
		for nm, edge := range u.edges {
			if entries := edge.DumpCache(); len(entries) > 0 {
				edges = append(edges, traffic.EdgeCache{Provider: nm, Entries: entries})
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i].Provider < edges[j].Provider })
		u.Close()

		if ckptPath != "" {
			users := make([]traffic.UserMemory, 0, len(userMem))
			for uidx, hosts := range userMem {
				users = append(users, traffic.UserMemory{User: job.lo + uidx, AltSvc: hosts})
			}
			sort.Slice(users, func(i, j int) bool { return users[i].User < users[j].User })
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
