package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// BenchmarkPopulationCampaign measures the open-loop traffic engine end
// to end: a RetainNone population campaign whose horizon is scaled so
// roughly N visits complete, reporting scheduler events/sec and the
// peak-RSS proxy. BENCH_baseline.json records the default smoke scale
// (informational — `make benchgate` verifies the benchmark still runs
// and prints throughput drift); the bounded-memory claim is the
// max_rss_growth gate over the visits=N spread in BENCH_scaling.json,
// which `make bench-memory` runs via H3CDN_TRAFFIC_VISITS=1200,9600.
//
// Set H3CDN_TRAFFIC_VISITS=100000 to reproduce the recorded 100k-visit
// run: retention none keeps peak heap flat because every visit folds
// into the sketches and the sink keeps no PageLog (it hands each one to
// a later visit of the shard to fill again) — dataset size is
// O(shards × sketch), not O(visits).
func BenchmarkPopulationCampaign(b *testing.B) {
	scales := []int{1200}
	if s := os.Getenv("H3CDN_TRAFFIC_VISITS"); s != "" {
		scales = scales[:0]
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				b.Fatalf("H3CDN_TRAFFIC_VISITS=%q: want comma-separated positive integers", s)
			}
			scales = append(scales, n)
		}
	}
	corpus := webgen.Generate(webgen.Config{Seed: 2022, NumPages: 64, MeanResources: 12})
	modes := []browser.Mode{browser.ModeH2, browser.ModeH3}
	for _, visits := range scales {
		b.Run(fmt.Sprintf("visits=%d", visits), func(b *testing.B) {
			// Fixed population and offered load; only the horizon grows
			// with the target, so per-visit cost is scale-invariant:
			// visits ≈ modes × rate × mean-session-visits × duration.
			// The rate (1 session/s per 64-user shard) keeps the shard
			// below its link capacity — an overloaded open-loop shard
			// measures queueing collapse, not engine throughput.
			const rate, sessionVisits = 2.0, 3.0
			tc := traffic.Config{
				Users:         128,
				UsersPerShard: 64,
				ArrivalRate:   rate,
				SessionVisits: sessionVisits,
				ThinkTime:     2 * time.Second,
				CacheTTL:      30 * time.Second,
				EpochInterval: 30 * time.Second,
				Duration:      time.Duration(float64(visits) / (float64(len(modes)) * rate * sessionVisits) * float64(time.Second)),
			}
			runtime.GC()
			sampler := startPeakSampler()
			var events, completed int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ds, err := RunCampaign(CampaignConfig{
					Seed:             2022,
					Corpus:           corpus,
					Modes:            modes,
					Vantages:         vantage.Points()[:1],
					ProbesPerVantage: 1,
					Workers:          2,
					Retention:        har.Retention{Kind: har.RetainNone},
					Traffic:          &tc,
				})
				if err != nil {
					b.Fatal(err)
				}
				if ds.Stats.PagesRetained != 0 {
					b.Fatalf("RetainNone retained %d pages", ds.Stats.PagesRetained)
				}
				events += ds.Stats.Events
				completed += ds.Stats.Traffic.VisitsCompleted
			}
			elapsed := time.Since(start)
			b.ReportMetric(float64(events)/elapsed.Seconds(), "events/sec")
			b.ReportMetric(float64(completed)/float64(b.N), "visits")
			b.ReportMetric(sampler.peakMB(), "peak-RSS-MB")
		})
	}
}

// BenchmarkPopulationAllocs measures the allocations of one RetainNone
// population shard, H3, 64 users over two 20 s epochs (visits/op
// reports how many visits that is), run through runShard on a worker's
// Pools that an identical shard warmed first, as a campaign worker runs
// its later shards. BENCH_baseline.json gates its allocs/op: what a
// shard's sessions and visits allocate — browsers, PageLogs, random
// streams, everything under them — since nothing in the shard depends
// on the machine.
func BenchmarkPopulationAllocs(b *testing.B) {
	corpus := webgen.Generate(webgen.Config{Seed: 2022, NumPages: 64, MeanResources: 12})
	topo := NewTopology(corpus)
	cfg := CampaignConfig{
		Seed:      2022,
		Retention: har.Retention{Kind: har.RetainNone},
		Traffic: &traffic.Config{
			Users:         64,
			ArrivalRate:   1,
			SessionVisits: 3,
			ThinkTime:     2 * time.Second,
			CacheTTL:      30 * time.Second,
			EpochInterval: 20 * time.Second,
			Duration:      40 * time.Second,
		},
	}.withDefaults()
	job := shardJob{mode: browser.ModeH3, point: vantage.Points()[0], lo: 0, hi: 64}
	pools := &httpsim.Pools{}
	run := func() int64 {
		r := runShard(cfg, topo, job, pools)
		if r.err != nil {
			b.Fatal(r.err)
		}
		return r.stats.Traffic.VisitsCompleted
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	var visits int64
	for i := 0; i < b.N; i++ {
		visits += run()
	}
	b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
}
