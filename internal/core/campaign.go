package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// CampaignConfig describes one measurement campaign (§III-B): every
// target page visited over H2 and H3 from geographically distributed
// probes, with a cache-warming first visit and a measured second visit.
type CampaignConfig struct {
	// Seed drives corpus generation and per-probe randomness.
	Seed uint64
	// Corpus overrides generation (nil: generated from CorpusConfig).
	Corpus *webgen.Corpus
	// Topology, when non-nil, supplies a prebuilt campaign topology. It
	// must have been built from this campaign's corpus. Topologies are
	// read-only after construction, so one may be shared across
	// concurrently running campaigns; nil builds a private one.
	Topology *Topology
	// CorpusConfig tunes generation when Corpus is nil; its Seed is
	// overridden by Seed.
	CorpusConfig webgen.Config
	// Vantages lists probe sites. Default: the three CloudLab sites.
	Vantages []vantage.Point
	// ProbesPerVantage overrides each site's probe count (0 keeps the
	// site default; negative is an error).
	ProbesPerVantage int
	// Modes lists browsing modes. Default {ModeH2, ModeH3}.
	Modes []browser.Mode
	// LossRate injects path loss on top of which §VI-E's Traffic
	// Control sweep adds more. Zero selects the default baseline of
	// 0.3% (real Internet paths are not lossless — the paper's "0%"
	// condition refers to *added* loss); pass a negative value for a
	// genuinely lossless network. NaN and rates of 1 or more are errors.
	LossRate float64
	// Impairment, when non-nil, applies the fault-injection layer
	// (bursty loss, jitter, reordering, outages) to every client↔server
	// path in every shard, on top of LossRate. The struct is shared
	// read-only across worker goroutines; each shard's universe derives
	// its own impairment randomness from the shard seed, so datasets
	// stay byte-identical across worker counts.
	Impairment *simnet.Impairment
	// LinkTrace, when non-nil, drives every shard's download access link
	// from a capacity trace (simnet.TraceLink replay) instead of the
	// fixed access rate — the Mahimahi-style variable-link condition.
	// The TraceLink is immutable and shared read-only across worker
	// goroutines; replay position is a pure function of virtual time, so
	// datasets stay byte-identical across worker counts.
	LinkTrace *simnet.TraceLink
	// FetchRetries bounds the browser's transparent re-fetches after a
	// transport error. 0 keeps the browser default (2); negative
	// disables retries.
	FetchRetries int
	// Consecutive keeps session caches across pages within a probe's
	// measured pass (§VI-D); the standard protocol clears them after
	// every visit.
	Consecutive bool
	// Workers bounds the worker pool draining shards. 0 selects
	// GOMAXPROCS; 1 runs the shards one after another; negative is an
	// error. The shard decomposition is the same at every count, so the
	// dataset is too.
	Workers int
	// PagesPerShard is the page-range granularity of one shard (0
	// selects 128). Consecutive mode ignores it: session continuity
	// spans the whole corpus, so each probe is a single shard.
	PagesPerShard int
	// QlogDir, when non-empty, enables event tracing and writes one
	// qlog JSONL file per shard (<mode>_<vantage>_p<probe>_s<shard>.qlog)
	// covering every measured visit. The directory must exist. Shard
	// files are byte-identical across worker counts.
	QlogDir string
	// TracePhases enables event tracing and folds each measured visit's
	// whole trace into a phase breakdown, collected in Dataset.Phases.
	// A visit whose trace outgrows the tracer's ceiling fails the
	// campaign rather than be attributed from part of its events.
	TracePhases bool
	// Retention selects what happens to finished PageLogs after they
	// are folded into Dataset.Metrics: keep them all (the zero value —
	// the historical exact-analysis behavior), keep a deterministic
	// per-shard sample, or free them immediately so campaign memory is
	// O(shards × sketch size) instead of O(pages). Retention never
	// affects Metrics, which always covers every page.
	Retention har.Retention
	// Traffic, when non-nil, replaces the closed-loop visit protocol
	// (warm pass + measured pass over every page) with the open-loop
	// population engine: a seeded user population generates Poisson
	// session arrivals contending on shared TTL edge caches. Shards then
	// partition users instead of pages — each shard is an independent
	// PoP serving its population slice — and the dataset's PageLogs are
	// whatever visits the population made (under Retention), not one
	// visit per corpus page. Incompatible with Consecutive, TracePhases
	// and QlogDir (see Validate).
	Traffic *traffic.Config
}

// probesAt returns how many probes the campaign runs at a vantage point.
func (c CampaignConfig) probesAt(point vantage.Point) int {
	if c.ProbesPerVantage > 0 {
		return c.ProbesPerVantage
	}
	return point.ProbesPerSite
}

// DefaultBaselineLoss is the ambient packet-loss rate of the simulated
// paths (see CampaignConfig.LossRate).
const DefaultBaselineLoss = 0.003

// withDefaults fills the unset fields. A second call changes nothing: a
// lossless rate stays negative (-1), since 0 would select the baseline.
func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Vantages == nil {
		c.Vantages = vantage.Points()
	}
	if c.LossRate == 0 {
		c.LossRate = DefaultBaselineLoss
	} else if c.LossRate < 0 {
		c.LossRate = -1
	}
	if c.Modes == nil {
		c.Modes = []browser.Mode{browser.ModeH2, browser.ModeH3}
	}
	return c
}

// pathLoss is the i.i.d. loss rate of a defaulted config's paths.
func (c CampaignConfig) pathLoss() float64 {
	return max(c.LossRate, 0)
}

// Dataset is a campaign's output: per-mode HAR logs over the shared
// corpus.
type Dataset struct {
	Seed        uint64
	Consecutive bool
	Corpus      *webgen.Corpus
	Logs        map[browser.Mode]*har.Log
	// Phases holds per-visit phase attributions (one entry per page in
	// the same order as Logs[mode].Pages) when the campaign ran with
	// TracePhases. Like Stats it never serializes.
	Phases map[browser.Mode][]trace.PhaseBreakdown `json:"-"`
	// Stats carries campaign execution counters. It is not part of the
	// serialized dataset (fixed-seed datasets stay byte-identical across
	// engine changes) and is zero on loaded datasets.
	Stats CampaignStats `json:"-"`
	// Metrics holds the campaign's streamed aggregates: mergeable
	// per-(mode, vantage) sketches covering every measured page,
	// regardless of HAR retention. Shard accumulators are merged in
	// shard-index order, so Metrics is byte-identical across worker
	// counts. Like Stats it never serializes and is nil on loaded
	// datasets.
	Metrics *sketch.MetricAccumulator `json:"-"`
	// Traffic holds the population engine's emergent outputs (arrival
	// counters plus the per-epoch edge-contention series), merged across
	// shards in job order. Nil on closed-loop campaigns and on loaded
	// datasets; like Stats it never serializes.
	Traffic *traffic.Report `json:"-"`
}

// CampaignStats aggregates execution counters across a campaign's
// shards. Like Dataset.Stats it never serializes: recovery behavior is
// observable here without perturbing fixed-seed dataset bytes.
type CampaignStats struct {
	// Events is the total scheduler events executed (warm + measured
	// passes) — the simulator's unit of work.
	Events int64
	// Recovery aggregates client-side loss-recovery activity: RTO/PTO
	// fires, retransmissions, fetch retries, blackout crossings.
	Recovery simnet.RecoveryStats
	// Network-level drop counters, summed over all shard networks.
	LossDrops   int64 // ambient i.i.d. loss
	BurstDrops  int64 // Gilbert–Elliott impairment loss
	OutageDrops int64 // scheduled-outage drops
	QueueDrops  int64 // tail drops at path queue limits
	Reordered   int64 // packets held back by the reordering impairment
	// PagesFolded counts measured pages folded into the streaming
	// metric accumulators; PagesRetained counts the subset whose
	// PageLogs the retention policy kept in the dataset.
	PagesFolded   int64
	PagesRetained int64
	// Traffic carries the population engine's arrival accounting
	// (sessions started; visits generated vs completed vs shed) on
	// open-loop campaigns; zero on closed-loop ones.
	Traffic traffic.Counters
	// NewBuffers sums, over the campaign's workers, the buffers their
	// pools had to allocate. A worker's pools warm in its first shard,
	// so these grow with workers, not shards. A checkpoint does not
	// record it: it depends on which worker ran what.
	NewBuffers httpsim.PoolNews `json:"-"`
}

// add accumulates one shard's counters.
func (s *CampaignStats) add(o CampaignStats) {
	s.Events += o.Events
	s.Recovery.Add(o.Recovery)
	s.LossDrops += o.LossDrops
	s.BurstDrops += o.BurstDrops
	s.OutageDrops += o.OutageDrops
	s.QueueDrops += o.QueueDrops
	s.Reordered += o.Reordered
	s.PagesFolded += o.PagesFolded
	s.PagesRetained += o.PagesRetained
	s.Traffic.Add(o.Traffic)
}

// defaultPagesPerShard is the page-range granularity of one shard when
// CampaignConfig.PagesPerShard is zero. Corpora at or below this size run
// as a single shard per probe, byte-identical to an unsharded campaign —
// the default is chosen above the test-fixture scale (96 pages) so the
// calibrated statistical shape tests keep their exact seed datasets,
// while paper-scale runs (325 pages) shard.
const defaultPagesPerShard = 128

// shardJob identifies one (mode, vantage, probe, page-range) run. Each
// shard gets its own deterministic universe, so the decomposition — which
// depends only on the corpus and config, never on worker count or
// scheduling — fixes the dataset exactly.
type shardJob struct {
	mode   browser.Mode
	point  vantage.Point
	probe  int
	shard  int // index of this page range within the probe
	lo, hi int // page range [lo, hi) in corpus order
}

// slug names the shard in the files it writes (qlog, checkpoint).
func (j shardJob) slug() string {
	mode := strings.NewReplacer("/", "", ".", "").Replace(j.mode.String()) // "http/1.1" → "http11"
	return fmt.Sprintf("%s_%s_p%d_s%d", mode, slug(j.point.Name), j.probe, j.shard)
}

// shardSeed derives the universe seed for a shard. Shard 0 reproduces the
// historical per-probe formula, so single-shard campaigns (small corpora,
// Consecutive mode) match pre-sharding datasets exactly.
func shardSeed(cfg CampaignConfig, job shardJob) uint64 {
	return cfg.Seed + uint64(job.probe)*1009 + uint64(job.shard)*7919
}

// shardCampaign decomposes the campaign into shard jobs, in (mode,
// vantage, probe, page-range) order — the stitch order of the dataset.
// Traffic campaigns partition the user population instead of the page
// range: each job's [lo, hi) is a user slice, every shard sees the full
// corpus, and the decomposition stays a pure function of the config —
// which is what keeps open-loop datasets byte-identical across worker
// counts, exactly as it does for pages.
func shardCampaign(cfg CampaignConfig, corpus *webgen.Corpus) []shardJob {
	units, per := len(corpus.Pages), cfg.PagesPerShard
	if per <= 0 {
		per = defaultPagesPerShard
	}
	if cfg.Traffic != nil {
		tc := cfg.Traffic.WithDefaults()
		units, per = tc.Users, tc.UsersPerShard
	}
	if cfg.Consecutive || per > units {
		per = units
	}
	var jobs []shardJob
	for _, mode := range cfg.Modes {
		for _, point := range cfg.Vantages {
			for p := 0; p < cfg.probesAt(point); p++ {
				for s, lo := 0, 0; lo < units; s, lo = s+1, lo+per {
					jobs = append(jobs, shardJob{
						mode: mode, point: point, probe: p,
						shard: s, lo: lo, hi: min(lo+per, units),
					})
				}
			}
		}
	}
	return jobs
}

// Validate reports the first configuration error: a negative count, a
// loss rate that is NaN or drops every packet, a bad impairment,
// retention or traffic config, a campaign that would decompose into zero
// shards, or a traffic campaign combined with per-visit machinery it
// cannot honor.
// RunCampaign calls it; front ends call it to fail before any other work.
func (c CampaignConfig) Validate() error {
	switch {
	case c.Corpus == nil && c.CorpusConfig.NumPages < 0:
		return fmt.Errorf("core: corpus of %d pages", c.CorpusConfig.NumPages)
	case c.ProbesPerVantage < 0:
		return fmt.Errorf("core: %d probes per vantage", c.ProbesPerVantage)
	case c.Workers < 0:
		return fmt.Errorf("core: %d workers", c.Workers)
	case math.IsNaN(c.LossRate) || c.LossRate >= 1:
		// Negative still means lossless (see LossRate).
		return fmt.Errorf("core: loss rate %v: must be below 1", c.LossRate)
	}
	if c.Impairment != nil {
		if err := c.Impairment.Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	c = c.withDefaults()
	if err := c.Retention.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(c.Modes) == 0 {
		return fmt.Errorf("core: campaign has no browsing modes")
	}
	for i, m := range c.Modes {
		if slices.Contains(c.Modes[:i], m) {
			// Both probes' logs would stitch into one har.Log.
			return fmt.Errorf("core: browsing mode %s listed twice", m)
		}
	}
	if len(c.Vantages) == 0 {
		return fmt.Errorf("core: campaign has no vantage points")
	}
	for _, point := range c.Vantages {
		if c.probesAt(point) <= 0 {
			return fmt.Errorf("core: vantage %s has no probes", point.Name)
		}
	}
	if c.Traffic == nil {
		return nil
	}
	if err := c.Traffic.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The tracer brackets one visit at a time per universe; population
	// visits overlap. Consecutive is a property of the scripted pass.
	switch {
	case c.Consecutive:
		return fmt.Errorf("core: traffic campaigns are open-loop; Consecutive does not apply")
	case c.TracePhases:
		return fmt.Errorf("core: traffic campaigns do not support TracePhases")
	case c.QlogDir != "":
		return fmt.Errorf("core: traffic campaigns do not support QlogDir")
	}
	return nil
}

// RunCampaign executes the full visit protocol and returns the dataset.
// Shards run on a bounded worker pool (see CampaignConfig.Workers); the
// result is independent of worker count.
func RunCampaign(cfg CampaignConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corpus := cfg.Corpus
	if corpus == nil {
		cc := cfg.CorpusConfig
		cc.Seed = cfg.Seed
		corpus = webgen.Generate(cc)
	}
	if len(corpus.Pages) == 0 {
		return nil, fmt.Errorf("core: RunCampaign: empty corpus")
	}

	// The topology — content catalog, provider tables, resolver maps —
	// depends only on the corpus and registry, so build it once and
	// share it read-only across every shard on every worker.
	topo := cfg.Topology
	if topo == nil {
		topo = NewTopology(corpus)
	}
	jobs := shardCampaign(cfg, corpus)

	// Finished shards park in results until every shard is done. Each
	// index is written by exactly one worker and read only after the
	// WaitGroup, so the slice needs no lock. Each worker owns one Pools
	// and runs every shard it takes on it, so its free lists warm once
	// per worker, not once per shard; pool state never changes what is
	// simulated, so which worker runs which shard cannot reach the
	// dataset.
	results := make([]shardResult, len(jobs))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pools := make([]*httpsim.Pools, min(workers, len(jobs)))
	queue := make(chan int, len(jobs))
	for i := range jobs {
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	for w := range pools {
		pools[w] = &httpsim.Pools{}
		wg.Add(1)
		go func(pl *httpsim.Pools) {
			defer wg.Done()
			ran := false
			for i := range queue {
				if ran {
					// The worker's last shard is garbage now: its
					// universe, which Promote cut from the pools. Collect
					// it before this shard grows, or the heap may grow
					// to twice a live set that still held the finished
					// universe: this is what keeps a long campaign's
					// peak memory flat (DESIGN.md §4.17).
					runtime.GC()
				}
				results[i] = runShard(cfg, topo, jobs[i], pl)
				ran = true
			}
		}(pools[w])
	}
	wg.Wait()
	ds, err := stitch(cfg, corpus, jobs, results)
	if err != nil {
		return nil, err
	}
	for _, pl := range pools {
		ds.Stats.NewBuffers.Add(pl.News())
	}
	return ds, nil
}

// shardResult is everything one finished shard hands to the stitcher.
type shardResult struct {
	pages   []har.PageLog
	phases  []trace.PhaseBreakdown
	stats   CampaignStats
	acc     *sketch.MetricAccumulator
	traffic *traffic.Report // population shards only
	err     error
}

// stitch assembles the dataset from the finished shards in job order,
// which is what makes the dataset — and, when several shards fail, the
// reported error — independent of worker count and completion order.
// Shards whose retention kept nothing contribute empty slices.
func stitch(cfg CampaignConfig, corpus *webgen.Corpus, jobs []shardJob, results []shardResult) (*Dataset, error) {
	ds := &Dataset{
		Seed:        cfg.Seed,
		Consecutive: cfg.Consecutive,
		Corpus:      corpus,
		Logs:        make(map[browser.Mode]*har.Log, len(cfg.Modes)),
		Metrics:     sketch.NewAccumulator(sketch.DefaultAlpha),
	}
	if cfg.TracePhases {
		ds.Phases = make(map[browser.Mode][]trace.PhaseBreakdown, len(cfg.Modes))
	}
	unit := "pages"
	if cfg.Traffic != nil {
		ds.Traffic = &traffic.Report{}
		unit = "users"
	}
	for _, mode := range cfg.Modes {
		ds.Logs[mode] = &har.Log{Seed: cfg.Seed}
	}
	for i, job := range jobs {
		r := &results[i]
		if r.err != nil {
			return nil, fmt.Errorf("core: probe %s/%d mode %s %s [%d,%d): %w",
				job.point.Name, job.probe, job.mode, unit, job.lo, job.hi, r.err)
		}
		ds.Stats.add(r.stats)
		ds.Metrics.Merge(r.acc)
		if ds.Traffic != nil {
			ds.Traffic.Merge(r.traffic)
		}
		log := ds.Logs[job.mode]
		log.Pages = append(log.Pages, r.pages...)
		if cfg.TracePhases {
			ds.Phases[job.mode] = append(ds.Phases[job.mode], r.phases...)
		}
	}
	return ds, nil
}

// runShard executes one shard on the worker's pools: the campaign kind
// picks the visit source, and everything either source produces lands
// in the shard's sink. When it returns, no scheduler of the shard will
// run again, so the pools promote what it retired: the worker's next
// shard must not find this one's universe through them.
func runShard(cfg CampaignConfig, topo *Topology, job shardJob, pools *httpsim.Pools) shardResult {
	defer pools.Promote()
	sink := newVisitSink(cfg, job)
	source := runScripted
	if cfg.Traffic != nil {
		source = runPopulation
	}
	if err := source(cfg, topo, job, sink, pools); err != nil {
		return shardResult{err: err}
	}
	return sink.result()
}

// universeConfig assembles the universe of one shard (scripted source) or
// one shard-epoch (population source); view is the corpus slice it serves.
func (c CampaignConfig) universeConfig(job shardJob, seed uint64, view *webgen.Corpus, topo *Topology) UniverseConfig {
	return UniverseConfig{
		Seed:      seed,
		Corpus:    view,
		Topology:  topo,
		Vantage:   job.point,
		LossRate:  c.pathLoss(),
		Impair:    c.Impairment,
		LinkTrace: c.LinkTrace,
	}
}

// browserConfig is the campaign's browser. Chrome-realistic resumption:
// QUIC 0-RTT on, TLS 1.3 early data off — a resumed H2 connection still
// pays the TCP and TLS round trips (the asymmetry behind §VI-D's
// consecutive-visit gains).
func (c CampaignConfig) browserConfig(mode browser.Mode) browser.Config {
	return browser.Config{
		Mode:            mode,
		EnableEarlyData: false,
		EnableZeroRTT:   true,
		HandshakeCPU:    300 * time.Microsecond,
		MaxFetchRetries: c.FetchRetries,
	}
}

// runScripted is the closed-loop visit source (§III-B): a warm pass
// caches the shard's resources at the edges (and, implicitly, teaches the
// browser each host's H3 support, like Alt-Svc), then the measured pass
// hands every page's log to the sink. The shard sees a sub-corpus view —
// only its page range, with the full corpus's hostname maps — while the
// shared campaign topology supplies the content catalog and resolver
// tables, so each shard instantiates only the servers its pages contact.
// The scheduler drains and the arena rewinds at every visit boundary.
func runScripted(cfg CampaignConfig, topo *Topology, job shardJob, sink *visitSink, pools *httpsim.Pools) error {
	corpus := topo.Corpus()
	view := &webgen.Corpus{
		Pages:        corpus.Pages[job.lo:job.hi],
		H3Support:    corpus.H3Support,
		HostProvider: corpus.HostProvider,
		H1Only:       corpus.H1Only,
	}
	uc := cfg.universeConfig(job, shardSeed(cfg, job), view, topo)
	uc.Trace = sink.tracer
	uc.Pools = pools
	u, err := NewUniverse(uc)
	if err != nil {
		return err
	}
	defer u.Close()
	b := u.NewBrowser(cfg.browserConfig(job.mode))

	// Warm pass (discarded): fills edge caches, as in §III-B.
	for i := range view.Pages {
		if err := u.RunVisitDiscard(b, &view.Pages[i]); err != nil {
			return fmt.Errorf("warm visit: %w", err)
		}
		b.ClearSessions()
	}
	for i := range view.Pages {
		log, err := u.runVisit(b, &view.Pages[i], sink.newLog(), u.cfg.Trace)
		if err != nil {
			return fmt.Errorf("measured visit: %w", err)
		}
		sink.fold(log, visitSample(log, sink.phasesOf()))
		if !cfg.Consecutive {
			b.ClearSessions()
		}
	}
	sink.harvest(u)
	return nil
}
