// Command h3cdn-measure runs the paper's measurement campaign on the
// simulated Internet and writes the resulting dataset (HAR logs over both
// browsing modes) as JSON.
//
// Usage:
//
//	h3cdn-measure [flags] > dataset.json
//
// The default configuration mirrors the paper: 325 pages, the three
// CloudLab vantage points, H2 and H3 browsing modes, warm-up visit plus
// measured visit. Probe count per vantage defaults to 1 (the paper ran
// 3); raise -probes for smoother statistics at ~3x the runtime per extra
// probe.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-measure", flag.ContinueOnError)
	cfg := core.CampaignConfig{Vantages: vantage.Points()}
	buildPath := cfg.BindFlags(fs)
	fs.BoolVar(&cfg.Consecutive, "consecutive", false, "consecutive-visit protocol (§VI-D)")
	fs.StringVar(&cfg.QlogDir, "qlog", "", "write per-shard qlog JSONL trace files into this directory (created if missing)")
	var (
		trafficOn = fs.Bool("traffic", false, "run an open-loop population traffic campaign (seeded users contending on shared TTL edge caches) instead of the one-visit-per-page census")

		out        = fs.String("o", "", "output file (default stdout)")
		cpuprofile = fs.String("cpuprofile", "", "write CPU profile to file")
		memprofile = fs.String("memprofile", "", "write heap profile to file")
		memstats   = fs.Bool("memstats", false, "report peak heap and cumulative allocation after the campaign")
	)
	var tc traffic.Config
	fs.IntVar(&tc.Users, "traffic-users", 256, "population size per mode and vantage")
	fs.IntVar(&tc.UsersPerShard, "traffic-users-per-shard", 0, "user-partition granularity: users simulated per shard (0 = default)")
	fs.Float64Var(&tc.ArrivalRate, "traffic-rate", 4, "population mean session-arrival rate, sessions per second of virtual time")
	fs.Float64Var(&tc.DiurnalAmplitude, "traffic-diurnal", 0, "diurnal arrival-rate modulation amplitude in [0, 1) (0 = flat rate)")
	fs.DurationVar(&tc.DiurnalPeriod, "traffic-diurnal-period", 0, "diurnal modulation period (0 = 1h)")
	fs.DurationVar(&tc.Duration, "traffic-duration", 2*time.Minute, "virtual-time horizon of the traffic campaign")
	fs.DurationVar(&tc.EpochInterval, "traffic-epoch", 0, "checkpoint epoch interval (0 = one epoch spanning the horizon)")
	fs.Float64Var(&tc.SessionVisits, "traffic-session-visits", 0, "mean visits per session, geometric with minimum 1 (0 = default 3)")
	fs.DurationVar(&tc.ThinkTime, "traffic-think", 0, "mean think time between a session's visits (0 = default 5s)")
	fs.Float64Var(&tc.ZipfS, "traffic-zipf", 0, "page-popularity Zipf exponent, must be > 1 (0 = default 1.2)")
	fs.DurationVar(&tc.CacheTTL, "traffic-ttl", 0, "edge-cache entry lifetime (0 = default 60s)")
	fs.IntVar(&tc.MaxInFlight, "traffic-max-inflight", 0, "per-shard bound on concurrently loading visits; arrivals at the bound are shed (0 = default 64)")
	fs.StringVar(&tc.CheckpointDir, "traffic-checkpoint", "", "checkpoint directory: each shard saves state per epoch and resumes from it on the next run (created if missing)")
	fs.IntVar(&tc.HaltAfterEpochs, "traffic-halt-epochs", 0, "stop each shard after this many epochs this process, checkpoints intact — exercises kill/resume (0 = run to completion)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var stray string // a -traffic-* flag set without -traffic
	if *trafficOn {
		cfg.Traffic = &tc
	} else {
		fs.Visit(func(f *flag.Flag) {
			if stray == "" && strings.HasPrefix(f.Name, "traffic-") {
				stray = f.Name
			}
		})
	}

	// Usage errors exit 2 (the flag package's own convention for bad
	// flags), before any file creation or simulation work.
	if stray != "" {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: -%s applies only with -traffic\n", stray)
		return 2
	}
	if err := buildPath(); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 2
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// Open the heap-profile file up front so a bad path fails before the
	// campaign runs, not after.
	var memf *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		memf = f
	}

	// Open the dataset file up front too: a bad -o path must fail
	// before the campaign runs, not after minutes of simulation.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	// The campaign expects the qlog directory to exist; create it before
	// the run so a bad path fails fast. Same for the traffic checkpoint
	// directory.
	if cfg.QlogDir != "" {
		if err := os.MkdirAll(cfg.QlogDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}
	if cfg.Traffic != nil && tc.CheckpointDir != "" {
		if err := os.MkdirAll(tc.CheckpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}

	if tl := cfg.LinkTrace; tl != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: link trace %s: %d epochs over %v, mean %.1f Mbit/s\n",
			tl.Name(), tl.Epochs(), tl.Period(), tl.MeanBps()/1e6)
	}

	// Peak-heap sampling for -memstats: the post-campaign MemStats
	// snapshot only shows what is still live, so a sampler tracks the
	// in-use high-water mark while shards run.
	var (
		peakHeap    uint64
		samplerStop chan struct{}
		samplerDone chan struct{}
	)
	sampleHeap := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if inUse := ms.HeapInuse + ms.StackInuse; inUse > peakHeap {
			peakHeap = inUse
		}
	}
	if *memstats {
		samplerStop = make(chan struct{})
		samplerDone = make(chan struct{})
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-tick.C:
					sampleHeap()
				}
			}
		}()
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "h3cdn-measure: %d pages x %d vantages x %d probes, consecutive=%v\n",
		cfg.CorpusConfig.NumPages, len(cfg.Vantages), cfg.ProbesPerVantage, cfg.Consecutive)
	if cfg.Traffic != nil {
		// The effective values: the campaign fills the same defaults.
		d := tc.WithDefaults()
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic: %d users, %.2f sessions/s over %v (epoch %v, TTL %v)\n",
			d.Users, d.ArrivalRate, d.Duration, d.EpochInterval, d.CacheTTL)
	}
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	if *memstats {
		close(samplerStop)
		<-samplerDone
		sampleHeap()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: memstats peak-heap=%.1fMB total-alloc=%.1fMB gc-cycles=%d\n",
			float64(peakHeap)/(1<<20), float64(ms.TotalAlloc)/(1<<20), ms.NumGC)
		// Buffers the workers' pools had to allocate: warm pools take
		// most of them in each worker's first shard.
		nb := ds.Stats.NewBuffers
		fmt.Fprintf(os.Stderr, "h3cdn-measure: memstats new-buffers wire=%d tcp=%d quic=%d recv=%d\n",
			nb.Wire, nb.TCP, nb.QUIC, nb.Recv)
	}
	fmt.Fprintf(os.Stderr, "h3cdn-measure: retention=%s pages folded=%d retained=%d\n",
		cfg.Retention, ds.Stats.PagesFolded, ds.Stats.PagesRetained)
	if tr := ds.Traffic; tr != nil {
		c := tr.Counters
		hitRate := 0.0
		if total := c.CacheHits + c.CacheMisses; total > 0 {
			hitRate = float64(c.CacheHits) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic sessions=%d visits=%d completed=%d shed=%d\n",
			c.SessionsStarted, c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: traffic edge hit-rate=%.1f%% expired=%d stampedes=%d 0-rtt=%.2f\n",
			100*hitRate, c.CacheExpired, c.Stampedes, tr.ResumptionFraction())
	}
	fmt.Fprintf(os.Stderr, "h3cdn-measure: done in %v\n", elapsed.Round(time.Second))
	fmt.Fprintf(os.Stderr, "h3cdn-measure: %d events executed (%.0f events/sec)\n",
		ds.Stats.Events, float64(ds.Stats.Events)/elapsed.Seconds())
	if cfg.QlogDir != "" {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: qlog traces written to %s\n", cfg.QlogDir)
	}
	if cfg.Impairment != nil {
		r := ds.Stats.Recovery
		fmt.Fprintf(os.Stderr, "h3cdn-measure: drops burst=%d outage=%d reordered=%d\n",
			ds.Stats.BurstDrops, ds.Stats.OutageDrops, ds.Stats.Reordered)
		fmt.Fprintf(os.Stderr, "h3cdn-measure: recovery rto=%d fastrtx=%d rtx=%d pto=%d lost=%d outage-crossings=%d conn-failures=%d fetch-retries=%d\n",
			r.Timeouts, r.FastRetransmits, r.Retransmits, r.ProbeFires,
			r.PacketsDeclaredLost, r.OutageCrossings, r.ConnFailures, r.FetchRetries)
	}

	if memf != nil {
		runtime.GC()
		if err := pprof.WriteHeapProfile(memf); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
			return 1
		}
	}

	if err := ds.SaveJSON(w); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
	}
	return 0
}
