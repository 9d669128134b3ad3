package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/core"
	"h3cdn/internal/har"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// The traced pass produces the per-layer numbers of one workload from
// three sources, none of which changes the program: a CPU profile of one
// extra repeat bucketed by package, the counters the timed repeats'
// datasets already carry, and a visit loop the benchmark owns, with a
// span around every call into core. (The fourth source, the layer
// kernels, does not depend on the workload; see kernels.go.)

// loopPages is the page count of the bench-owned visit loop.
const loopPages = 64

// profiledRepeat runs one more repeat under the CPU profiler and
// attributes its samples to cost-map buckets.
func profiledRepeat(rec *spanRecorder, cfg core.CampaignConfig) (repeat, map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return repeat{}, nil, fmt.Errorf("cpu profile: %w", err)
	}
	var r repeat
	var err error
	rec.do("profiled_repeat", func() { r, err = runRepeat(cfg) })
	pprof.StopCPUProfile()
	if err != nil {
		return repeat{}, nil, err
	}
	samples, err := parseProfile(buf.Bytes(), 1)
	if err != nil {
		return repeat{}, nil, err
	}
	shares, err := cpuShares(samples)
	if err != nil {
		return repeat{}, nil, err
	}
	return r, shares, nil
}

// setCounters derives the source-2 metrics from a timed repeat's dataset
// and the repeats' host costs. Everything read from ds is exact and
// identical across repeats (the digest check enforces it).
func setCounters(out *metricSet, ds *core.Dataset, reps []repeat, workers int) {
	n := float64(visits(ds))
	st := ds.Stats
	f := sumFetches(ds)
	shed := st.Traffic.VisitsShed

	var walls, utils, gcs, live, inuse []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		utils = append(utils, r.cpu.Seconds()/(r.wall.Seconds()*float64(workers)))
		gcs = append(gcs, float64(r.gcCycles))
		live = append(live, float64(r.livePeak)/(1<<20))
		inuse = append(inuse, float64(r.inusePeak)/(1<<20))
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	plt := func(m browser.Mode) float64 {
		if g := ds.Metrics.ModeGroup(m.String()); g != nil {
			return g.MedianPLTMs()
		}
		return 0
	}
	set := []struct {
		name string
		v    float64
	}{
		{"failed_share", ratio(f.failed+shed, f.entries+shed)},
		{"simnet.events_per_visit", float64(st.Events) / n},
		{"simnet.events_per_sec", float64(st.Events) / median(walls)},
		{"simnet.drops_per_visit", float64(st.LossDrops+st.BurstDrops+st.OutageDrops+st.QueueDrops) / n},
		{"tcpsim.rtx_per_visit", float64(st.Recovery.Retransmits) / n},
		{"tcpsim.rto_per_visit", float64(st.Recovery.Timeouts) / n},
		{"quicsim.pto_per_visit", float64(st.Recovery.ProbeFires) / n},
		{"quicsim.lost_per_visit", float64(st.Recovery.PacketsDeclaredLost) / n},
		{"browser.retries_per_visit", float64(f.retries) / n},
		{"browser.reused_conn_share", ratio(f.reused, f.entries)},
		{"tlssim.resumed_conn_share", ratio(f.resumed, f.entries)},
		{"core.worker_utilization", median(utils)},
		{"core.gc_cycles", median(gcs)},
		{"live_heap_peak_mb", median(live)},
		{"core.heap_inuse_peak_mb", median(inuse)},
		{"browser.plt_median_ms_h2", plt(browser.ModeH2)},
		{"browser.plt_median_ms_h3", plt(browser.ModeH3)},
	}
	for _, m := range set {
		out.set(m.name, m.v)
	}
}

// loopStats is what one run of the bench-owned visit loop observed.
type loopStats struct {
	visitMs     map[browser.Mode][]float64 // host time of each measured visit
	warmMs      []float64                  // host time of each warm visit
	newUs       []float64                  // core.NewUniverse
	closeUs     []float64                  // Universe.Close
	foldUs      []float64                  // GroupMetrics.Fold, per visit
	measured    int
	mallocs     uint64 // during measured passes
	packets     int64  // sent during measured passes
	bytes       int64
	edgeHits    int64 // x-cache: HIT on measured visits
	edgeMisses  int64
	measuredDur time.Duration // sum over measured visits
	logs        map[browser.Mode]*har.Log
}

// sampleOf reduces a finished visit to its fold unit, as the campaign's
// own (unexported) reduction does.
func sampleOf(log *har.PageLog) sketch.VisitSample {
	v := sketch.VisitSample{
		PLTNs:   int64(log.PLT),
		Entries: int64(len(log.Entries)),
		Reused:  int64(log.ReusedConns),
		Resumed: int64(log.ResumedConns),
	}
	for i := range log.Entries {
		e := &log.Entries[i]
		v.Retries += int64(e.Retries)
		if e.Failed {
			v.Failed++
			continue
		}
		v.Bytes += int64(e.BodySize)
	}
	return v
}

// visitLoop replays the shard protocol — universe, browser, warm pass,
// measured pass with fold, close — single-threaded over the first pages
// of the workload's corpus, once per mode at the first vantage, under
// the campaign's network conditions. Every call into core is a span.
// With tracing set it installs an event tracer, the program's own
// observability switch, whose cost trace.overhead_ratio reports.
func visitLoop(rec *spanRecorder, root string, cfg core.CampaignConfig, pages int, tracing bool) (*loopStats, error) {
	defer rec.end(rec.begin(root))
	corpus := cfg.Corpus
	view := &webgen.Corpus{
		Pages:        corpus.Pages[:min(pages, len(corpus.Pages))],
		H3Support:    corpus.H3Support,
		HostProvider: corpus.HostProvider,
		H1Only:       corpus.H1Only,
	}
	ls := &loopStats{
		visitMs: map[browser.Mode][]float64{},
		logs:    map[browser.Mode]*har.Log{},
	}
	for _, mode := range cfg.Modes {
		uc := core.UniverseConfig{
			Seed:      cfg.Seed,
			Corpus:    view,
			Topology:  cfg.Topology,
			Vantage:   vantage.Points()[0],
			LossRate:  core.DefaultBaselineLoss,
			Impair:    cfg.Impairment,
			LinkTrace: cfg.LinkTrace,
		}
		if cfg.Traffic != nil {
			uc.EdgeTTL = cfg.Traffic.WithDefaults().CacheTTL
		}
		if tracing {
			uc.Trace = trace.New(0, func(*trace.VisitRecord) {})
		}
		if err := ls.shard(rec, uc, mode, cfg.Consecutive); err != nil {
			return nil, fmt.Errorf("visit loop: %s: %w", mode, err)
		}
	}
	return ls, nil
}

func msOf(d time.Duration) float64 { return d.Seconds() * 1e3 }
func usOf(d time.Duration) float64 { return d.Seconds() * 1e6 }

// shard runs one mode's universe through the warm and measured passes.
func (ls *loopStats) shard(rec *spanRecorder, uc core.UniverseConfig, mode browser.Mode, consecutive bool) error {
	defer rec.end(rec.begin("shard:" + mode.String()))
	pages := uc.Corpus.Pages

	var u *core.Universe
	var err error
	ls.newUs = append(ls.newUs, usOf(rec.do("core.NewUniverse", func() { u, err = core.NewUniverse(uc) })))
	if err != nil {
		return err
	}
	defer func() { ls.closeUs = append(ls.closeUs, usOf(rec.do("core.Universe.Close", u.Close))) }()
	b := u.NewBrowser(browser.Config{
		Mode:          mode,
		EnableZeroRTT: true,
		HandshakeCPU:  300 * time.Microsecond,
	})

	warm := rec.begin("warm_pass")
	for i := range pages {
		d := rec.do("core.RunVisitDiscard", func() { err = u.RunVisitDiscard(b, &pages[i]) })
		if err != nil {
			rec.end(warm)
			return err
		}
		ls.warmMs = append(ls.warmMs, msOf(d))
		b.ClearSessions()
	}
	rec.end(warm)

	defer rec.end(rec.begin("measured_pass"))
	log := &har.Log{Seed: uc.Seed}
	group := sketch.NewAccumulator(sketch.DefaultAlpha).Group(sketch.Key{Mode: mode.String(), Vantage: uc.Vantage.Name})
	m0, n0 := mallocs(), u.Net.Stats()
	for i := range pages {
		var pl *har.PageLog
		d := rec.do("core.RunVisit", func() { pl, err = u.RunVisit(b, &pages[i]) })
		if err != nil {
			return err
		}
		ls.visitMs[mode] = append(ls.visitMs[mode], msOf(d))
		ls.measuredDur += d
		ls.foldUs = append(ls.foldUs, usOf(rec.do("sketch.Fold", func() { group.Fold(sampleOf(pl)) })))
		log.Pages = append(log.Pages, *pl)
		for j := range pl.Entries {
			switch pl.Entries[j].Header["x-cache"] {
			case "HIT":
				ls.edgeHits++
			case "MISS":
				ls.edgeMisses++
			}
		}
		if !consecutive {
			b.ClearSessions()
		}
	}
	n1 := u.Net.Stats()
	ls.mallocs += mallocs() - m0
	ls.packets += n1.Sent - n0.Sent
	ls.bytes += n1.BytesSent - n0.BytesSent
	ls.measured += len(pages)
	ls.logs[mode] = log
	return nil
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// runAnalysis computes and renders every artifact h3cdn-report derives
// from one dataset.
func runAnalysis(ds *core.Dataset) {
	w := io.Discard
	fmt.Fprint(w, core.RenderTable2(core.ComputeTable2(ds)))
	fmt.Fprint(w, core.RenderFigure2(core.ComputeFigure2(ds)))
	fmt.Fprint(w, core.RenderFigure3(core.ComputeFigure3(ds)))
	fmt.Fprint(w, core.RenderFigure4(core.ComputeFigure4(ds)))
	fmt.Fprint(w, core.RenderFigure5(core.ComputeFigure5(ds)))
	fmt.Fprint(w, core.RenderFigure6a(core.ComputeFigure6a(ds)))
	fmt.Fprint(w, core.RenderFigure6b(core.ComputeFigure6b(ds)))
	fmt.Fprint(w, core.RenderFigure7(core.ComputeFigure7ab(ds), core.ComputeFigure7c(ds)))
	fmt.Fprint(w, core.RenderFigure8(core.ComputeFigure8(ds)))
	// Table 3 clusters pages by shared CDN domains and reports an error
	// when a small slice has too few to cluster; the cost up to that
	// point is still the analysis cost of this dataset.
	if t3, err := core.ComputeTable3(ds); err == nil {
		fmt.Fprint(w, core.RenderTable3(t3))
	}
}

// setLoopMetrics runs the visit loop (untraced, then with the program's
// event tracer on) and derives the source-3 metrics from its spans and
// counters, plus the off-path costs of serializing and analysing the
// dataset the loop produced.
func setLoopMetrics(rec *spanRecorder, out *metricSet, cfg core.CampaignConfig, pages int) error {
	plain, err := visitLoop(rec, "visit_loop", cfg, pages, false)
	if err != nil {
		return err
	}
	traced, err := visitLoop(rec, "visit_loop_traced", cfg, pages, true)
	if err != nil {
		return err
	}

	for _, m := range []struct {
		mode   browser.Mode
		suffix string
	}{{browser.ModeH2, "h2"}, {browser.ModeH3, "h3"}} {
		xs := plain.visitMs[m.mode]
		out.set("browser.visit_ms_p50_"+m.suffix, median(xs))
		pm, tail := tailPick(xs)
		out.setValue("browser.visit_ms_tail_"+m.suffix, value{Value: tail, N: len(xs), Note: fmt.Sprintf("p%g", float64(pm)/10)})
	}
	n := float64(plain.measured)
	hitRatio := 0.0
	if total := plain.edgeHits + plain.edgeMisses; total > 0 {
		hitRatio = float64(plain.edgeHits) / float64(total)
	}
	set := []struct {
		name string
		v    float64
	}{
		{"browser.warm_visit_ms_p50", median(plain.warmMs)},
		{"browser.allocs_per_visit", float64(plain.mallocs) / n},
		{"simnet.packets_per_visit", float64(plain.packets) / n},
		{"simnet.bytes_per_visit", float64(plain.bytes) / n},
		{"core.new_universe_us", median(plain.newUs)},
		{"core.universe_close_us", median(plain.closeUs)},
		{"sketch.fold_us_per_visit", median(plain.foldUs)},
		{"trace.overhead_ratio", traced.measuredDur.Seconds() / plain.measuredDur.Seconds()},
	}
	for _, m := range set {
		out.set(m.name, m.v)
	}
	// Closed-loop datasets carry no edge counters; the loop's response
	// headers do. Population reads its own campaign counters instead
	// (setPopulationCache), which also see the concurrent misses.
	if cfg.Traffic == nil {
		out.set("cdn.edge_hit_ratio", hitRatio)
		out.set("cdn.stampedes_per_visit", 0)
	}

	ds := &core.Dataset{Seed: cfg.Seed, Consecutive: cfg.Consecutive, Corpus: cfg.Corpus, Logs: plain.logs}
	var cw countingWriter
	var encErr error
	d := rec.do("core.Dataset.SaveJSON", func() { encErr = ds.SaveJSON(&cw) })
	if encErr != nil {
		return encErr
	}
	out.set("core.dataset_encode_mb_per_s", float64(cw.n)/(1<<20)/d.Seconds())
	d = rec.do("core.analysis", func() { runAnalysis(ds) })
	out.set("core.analysis_ms", d.Seconds()*1e3)
	return nil
}

// setPopulationCache reads the edge-contention counters only open-loop
// campaigns produce.
func setPopulationCache(out *metricSet, ds *core.Dataset) {
	c := ds.Traffic.Counters
	ratio := 0.0
	if total := c.CacheHits + c.CacheMisses; total > 0 {
		ratio = float64(c.CacheHits) / float64(total)
	}
	out.set("cdn.edge_hit_ratio", ratio)
	out.set("cdn.stampedes_per_visit", float64(c.Stampedes)/float64(visits(ds)))
}

// shareMetric names the per-layer metric of a cost-map bucket.
func shareMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_cpu_share" // runtime.gc_cpu_share, runtime.other_cpu_share
	}
	return bucket + ".cpu_share"
}

// tracedPass runs the workload-dependent part of the traced pass and
// fills out with every workloadLayerDefs metric. reps are the untraced
// timed repeats already taken; digest is theirs, which the profiled
// repeat must reproduce.
func tracedPass(rec *spanRecorder, out *metricSet, cfg core.CampaignConfig, reps []repeat, digest string, workers int, smoke bool) (map[string]float64, error) {
	defer rec.end(rec.begin("traced_pass"))

	prof, shares, err := profiledRepeat(rec, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := verifyRepeat(cfg, prof.ds, digest); err != nil {
		return nil, fmt.Errorf("profiled repeat: %w", err)
	}
	var sum float64
	for bucket, share := range shares {
		out.set(shareMetric(bucket), share)
		sum += share
	}
	if sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("invariant cpu_share buckets sum to 1: %.6f", sum)
	}
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
	}
	out.set("trace_overhead_ratio", prof.wall.Seconds()/median(walls))

	ds := reps[len(reps)-1].ds
	setCounters(out, ds, reps, workers)
	if cfg.Traffic != nil {
		setPopulationCache(out, ds)
	}

	prof.ds = nil
	runtime.GC()
	pages := loopPages
	if smoke {
		pages /= 16
	}
	return shares, setLoopMetrics(rec, out, cfg, pages)
}
