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
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-measure", flag.ContinueOnError)
	cfg := core.CampaignConfig{Vantages: vantage.Points()}
	cfg.BindFlags(fs)
	fs.Float64Var(&cfg.LossRate, "loss", 0, "path loss rate (0 = default baseline, negative = lossless)")
	fs.BoolVar(&cfg.Consecutive, "consecutive", false, "consecutive-visit protocol (§VI-D)")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent shard workers (0 = GOMAXPROCS, 1 = one shard at a time)")
	fs.IntVar(&cfg.FetchRetries, "retries", 0, "browser re-fetch budget per resource after transport errors")
	fs.StringVar(&cfg.QlogDir, "qlog", "", "write per-shard qlog JSONL trace files into this directory (created if missing)")

	var outages []simnet.Outage
	fs.Func("outage", "scheduled path outages, a comma-separated `list` of start-end pairs (e.g. 2s-4s,10s-11s)", func(s string) (err error) {
		outages, err = parseOutages(s)
		return err
	})
	var (
		burstLoss    = fs.Float64("burst-loss", 0, "Gilbert–Elliott average loss rate (0 disables bursty loss)")
		burstLen     = fs.Float64("burst-len", 4, "Gilbert–Elliott mean burst length in packets")
		jitter       = fs.Duration("jitter", 0, "uniform extra per-packet delay in [0, jitter)")
		reorder      = fs.Float64("reorder", 0, "probability a delivered packet is held back")
		reorderDelay = fs.Duration("reorder-delay", 2*time.Millisecond, "hold-back duration for reordered packets")

		linkTrace  = fs.String("link-trace", "", "drive the download link from a capacity trace: a synthetic profile ("+strings.Join(traces.Names(), ", ")+") or a Mahimahi trace file")
		traceScale = fs.Float64("trace-scale", 1, "multiply the link trace's capacity samples by this factor")

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
	if *trafficOn {
		cfg.Traffic = &tc
	}

	// Usage errors exit 2 (the flag package's own convention for bad
	// flags), before any file creation or simulation work.
	if err := validateImpairFlags(*burstLoss, *burstLen, *jitter, *reorder, *reorderDelay, *traceScale); err != nil {
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

	impair := buildImpairment(*burstLoss, *burstLen, *jitter, *reorder, *reorderDelay, outages)

	tl, err := buildLinkTrace(*linkTrace, *traceScale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-measure: %v\n", err)
		return 1
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

	cfg.Impairment, cfg.LinkTrace = impair, tl
	if tl != nil {
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
		// most wire buffers and TLS carries in each worker's first
		// shard; packet payloads start afresh each shard.
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
	if impair != nil {
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

// validateImpairFlags rejects nonsensical fault/trace knob values —
// out-of-range rates, negative durations, NaN — before any file or
// simulation work. These are usage errors (exit 2), distinct from
// runtime failures (exit 1): a sweep script with a sign bug should fail
// its very first invocation loudly, not run a campaign under a silently
// clamped knob (simnet.GilbertElliott clamps the rate to 0.5 and the
// burst length to 1).
func validateImpairFlags(burstLoss, burstLen float64, jitter time.Duration, reorder float64, reorderDelay time.Duration, traceScale float64) error {
	if !(burstLoss >= 0 && burstLoss <= 0.5) {
		return fmt.Errorf("-burst-loss %v: must be a loss rate in [0, 0.5]", burstLoss)
	}
	if !(burstLen >= 1) || math.IsInf(burstLen, 1) {
		return fmt.Errorf("-burst-len %v: must be a finite burst length of at least 1 packet", burstLen)
	}
	if jitter < 0 {
		return fmt.Errorf("-jitter %v: must be a non-negative duration", jitter)
	}
	if !(reorder >= 0 && reorder <= 1) {
		return fmt.Errorf("-reorder %v: must be a probability in [0, 1]", reorder)
	}
	if reorderDelay < 0 {
		return fmt.Errorf("-reorder-delay %v: must be a non-negative duration", reorderDelay)
	}
	if !(traceScale > 0) || math.IsInf(traceScale, 0) {
		return fmt.Errorf("-trace-scale %v: must be a positive finite factor", traceScale)
	}
	return nil
}

// buildLinkTrace resolves the -link-trace spec: a synthetic profile name
// from the bundled traces package, else a Mahimahi trace file path. The
// -trace-scale factor applies either way.
func buildLinkTrace(spec string, scale float64) (*simnet.TraceLink, error) {
	if spec == "" {
		return nil, nil
	}
	var (
		tl  *simnet.TraceLink
		err error
	)
	if traces.Describe(spec) != "" {
		tl, err = traces.Profile(spec)
	} else {
		f, ferr := os.Open(spec)
		if ferr != nil {
			return nil, fmt.Errorf("link-trace %q: not a synthetic profile (%s) and not a readable file: %v",
				spec, strings.Join(traces.Names(), ", "), ferr)
		}
		defer f.Close()
		tl, err = simnet.ParseMahimahiTrace(filepath.Base(spec), f, 0, 0)
	}
	if err != nil {
		return nil, err
	}
	return tl.Scaled(scale)
}

// buildImpairment assembles the fault profile from CLI knobs, or returns
// nil when every knob is off so campaigns keep the unimpaired fast path.
func buildImpairment(burstLoss, burstLen float64, jitter time.Duration, reorder float64, reorderDelay time.Duration, outages []simnet.Outage) *simnet.Impairment {
	if burstLoss <= 0 && jitter <= 0 && reorder <= 0 && len(outages) == 0 {
		return nil
	}
	im := simnet.GilbertElliott(burstLoss, burstLen)
	im.JitterMax = jitter
	if reorder > 0 {
		im.ReorderRate = reorder
		im.ReorderDelay = reorderDelay
	}
	im.Outages = outages
	return &im
}

// parseOutages parses comma-separated start-end duration pairs, e.g.
// "2s-4s,10s-11s". Windows must be listed in time order without
// overlapping, the form simnet.Impairment.Outages documents.
func parseOutages(spec string) ([]simnet.Outage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []simnet.Outage
	for _, field := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(field), "-")
		if !ok {
			return nil, fmt.Errorf("outage %q: want start-end", field)
		}
		start, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		end, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		if end <= start {
			return nil, fmt.Errorf("outage %q: end must follow start", field)
		}
		if n := len(out); n > 0 && start < out[n-1].End {
			return nil, fmt.Errorf("outage %q: starts before the previous window ends", field)
		}
		out = append(out, simnet.Outage{Start: start, End: end})
	}
	return out, nil
}
