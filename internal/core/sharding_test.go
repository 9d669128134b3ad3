package core

import (
	"encoding/json"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// harJSON serializes a dataset's logs for byte-level comparison.
func harJSON(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	b, err := json.Marshal(ds.Logs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardDecomposition pins the shard plan: order, ranges, and the
// seed formula (shard 0 must reproduce the historical per-probe seed so
// single-shard campaigns match pre-sharding datasets).
func TestShardDecomposition(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             99,
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 2,
		Modes:            []browser.Mode{browser.ModeH3},
		PagesPerShard:    5,
	}
	corpus := webgen.Generate(webgen.Config{NumPages: 12, MeanResources: 5, Seed: 99})
	jobs := shardCampaign(cfg, corpus)
	if len(jobs) != 6 { // 2 probes × 3 shards (5+5+2 pages)
		t.Fatalf("%d jobs, want 6", len(jobs))
	}
	wantRanges := [][2]int{{0, 5}, {5, 10}, {10, 12}}
	for i, job := range jobs {
		probe, shard := i/3, i%3
		if job.probe != probe || job.shard != shard {
			t.Fatalf("job %d: probe/shard %d/%d, want %d/%d", i, job.probe, job.shard, probe, shard)
		}
		if job.lo != wantRanges[shard][0] || job.hi != wantRanges[shard][1] {
			t.Fatalf("job %d: range [%d,%d), want %v", i, job.lo, job.hi, wantRanges[shard])
		}
		if shard == 0 {
			legacy := cfg.Seed + uint64(probe)*1009
			if got := shardSeed(cfg, job); got != legacy {
				t.Fatalf("shard 0 seed %d, want legacy %d", got, legacy)
			}
		}
	}

	// Consecutive mode collapses each probe to one full-corpus shard
	// with the legacy seed, preserving pre-sharding datasets exactly.
	cfg.Consecutive = true
	jobs = shardCampaign(cfg, corpus)
	if len(jobs) != 2 {
		t.Fatalf("consecutive: %d jobs, want 2", len(jobs))
	}
	for _, job := range jobs {
		if job.lo != 0 || job.hi != len(corpus.Pages) || job.shard != 0 {
			t.Fatalf("consecutive job not full-corpus shard 0: %+v", job)
		}
	}
}

// TestShardedSequentialMatchesParallel forces a multi-shard decomposition
// and asserts that one worker and several produce
// byte-identical HAR logs, at several worker counts.
func TestShardedSequentialMatchesParallel(t *testing.T) {
	shardedCfg := func(c *CampaignConfig) { c.PagesPerShard = 4 }
	seq := smallCampaign(t, func(c *CampaignConfig) {
		shardedCfg(c)
		c.Workers = 1
	})
	want := harJSON(t, seq)
	for _, workers := range []int{2, 3} {
		par := smallCampaign(t, func(c *CampaignConfig) {
			shardedCfg(c)
			c.Workers = workers
		})
		if got := harJSON(t, par); string(got) != string(want) {
			t.Fatalf("workers=%d: parallel dataset differs from one worker", workers)
		}
	}
}

// TestShardingPreservesSmallCampaigns asserts that a corpus at or below
// the default shard size yields the same dataset whether or not page
// sharding is requested explicitly — the single-shard path IS the legacy
// path.
func TestShardingPreservesSmallCampaigns(t *testing.T) {
	whole := smallCampaign(t, func(c *CampaignConfig) { c.PagesPerShard = 12 })
	deflt := smallCampaign(t, nil) // 12 pages < defaultPagesPerShard
	if string(harJSON(t, whole)) != string(harJSON(t, deflt)) {
		t.Fatal("explicit full-corpus shard differs from default")
	}
}

// TestConsecutiveIgnoresPagesPerShard asserts that Consecutive mode
// produces the same dataset regardless of the PagesPerShard knob: session
// continuity spans the corpus, so each probe must stay one shard.
func TestConsecutiveIgnoresPagesPerShard(t *testing.T) {
	a := smallCampaign(t, func(c *CampaignConfig) { c.Consecutive = true })
	b := smallCampaign(t, func(c *CampaignConfig) {
		c.Consecutive = true
		c.PagesPerShard = 3
		c.Workers = 2
	})
	if string(harJSON(t, a)) != string(harJSON(t, b)) {
		t.Fatal("consecutive dataset depends on PagesPerShard")
	}
}

// TestCampaignGoroutinesBounded verifies the worker pool actually bounds
// concurrency: with many shards and Workers=2, the process must not grow
// by more than the pool size (plus the sampler itself).
func TestCampaignGoroutinesBounded(t *testing.T) {
	base := runtime.NumGoroutine()

	var peak atomic.Int64
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-done:
				return
			default:
			}
			n := int64(runtime.NumGoroutine())
			if n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	smallCampaign(t, func(c *CampaignConfig) {
		c.PagesPerShard = 2 // 6 shards × 2 modes = 12 jobs
		c.Workers = 2
	})
	close(done)
	<-stopped

	// base + 2 workers + 1 sampler, with slack for runtime helpers.
	limit := int64(base) + 5
	if p := peak.Load(); p > limit {
		t.Fatalf("goroutine peak %d exceeds bound %d (base %d, 2 workers)", p, limit, base)
	}
}
