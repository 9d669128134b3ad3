package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// smallTraffic is the test-scale population shape: enough sessions to
// exercise contention, small enough to run in seconds.
func smallTraffic() *traffic.Config {
	return &traffic.Config{
		Users:         40,
		ArrivalRate:   2,
		Duration:      30 * time.Second,
		EpochInterval: 10 * time.Second,
		CacheTTL:      15 * time.Second,
		ThinkTime:     2 * time.Second,
		SessionVisits: 3,
	}
}

// trafficCampaign runs a reduced population campaign.
func trafficCampaign(t *testing.T, mutate func(*CampaignConfig)) *Dataset {
	t.Helper()
	cfg := CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 20},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Traffic:          smallTraffic(),
		Workers:          1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ds, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTrafficCampaignEndToEnd(t *testing.T) {
	ds := trafficCampaign(t, nil)
	rep := ds.Traffic
	if rep == nil {
		t.Fatal("no traffic report on an open-loop campaign")
	}
	c := rep.Counters
	if c.SessionsStarted == 0 || c.VisitsCompleted == 0 {
		t.Fatalf("no traffic ran: %+v", c)
	}
	// The open-loop bookkeeping invariant: every generated visit either
	// completed or was shed at the in-flight bound.
	if c.VisitsGenerated != c.VisitsCompleted+c.VisitsShed {
		t.Fatalf("generated %d ≠ completed %d + shed %d", c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
	}
	if ds.Stats.Traffic != c {
		t.Fatalf("CampaignStats.Traffic %+v ≠ report counters %+v", ds.Stats.Traffic, c)
	}
	// Shared caches must actually be contended: both hits and misses.
	if c.CacheHits == 0 || c.CacheMisses == 0 {
		t.Fatalf("cache never contended: hits=%d misses=%d", c.CacheHits, c.CacheMisses)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("%d epoch rows, want 3", len(rep.Epochs))
	}
	// Connections are visit-scoped but tickets are session-scoped, so
	// multi-visit sessions must produce actual 0-RTT resumptions — the
	// emergent resumption fraction is strictly inside (0, 1).
	if c.ConnsOpened == 0 {
		t.Fatal("no connections accounted")
	}
	if c.ResumedConns == 0 {
		t.Fatal("no resumed connections: session tickets never reused across visits")
	}
	if f := rep.ResumptionFraction(); f <= 0 || f >= 1 {
		t.Fatalf("resumption fraction %v, want strictly inside (0, 1)", f)
	}
	// Retained logs (RetainAll default) match the completed visit count,
	// across both modes.
	var retained int
	for _, log := range ds.Logs {
		retained += len(log.Pages)
		for i := range log.Pages {
			if log.Pages[i].PLT <= 0 {
				t.Fatalf("visit %d: PLT %v", i, log.Pages[i].PLT)
			}
		}
	}
	if int64(retained) != c.VisitsCompleted {
		t.Fatalf("retained %d logs for %d completed visits", retained, c.VisitsCompleted)
	}
	if ds.Stats.PagesFolded != c.VisitsCompleted {
		t.Fatalf("folded %d, completed %d", ds.Stats.PagesFolded, c.VisitsCompleted)
	}
	// The warmth split covers every folded visit that touched an edge.
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		g := ds.Metrics.ModeGroup(mode.String())
		if g == nil {
			t.Fatalf("%v: no metrics group", mode)
		}
		if g.WarmPages == 0 {
			t.Fatalf("%v: no warm visits despite cache hits", mode)
		}
		if g.CacheHits.Value() == 0 {
			t.Fatalf("%v: per-visit cache hits never folded", mode)
		}
	}
}

func TestTrafficRetainNoneBoundsDataset(t *testing.T) {
	ds := trafficCampaign(t, func(c *CampaignConfig) {
		c.Retention = har.Retention{Kind: har.RetainNone}
	})
	for mode, log := range ds.Logs {
		if len(log.Pages) != 0 {
			t.Fatalf("%v: %d pages retained under RetainNone", mode, len(log.Pages))
		}
	}
	if ds.Stats.PagesRetained != 0 {
		t.Fatalf("PagesRetained = %d", ds.Stats.PagesRetained)
	}
	// Metrics and the traffic report still cover the whole population.
	if ds.Traffic.Counters.VisitsCompleted == 0 || ds.Metrics.Pages() == 0 {
		t.Fatal("RetainNone starved metrics")
	}
}

// TestTrafficShardDecomposition pins the user partition: shards slice
// the population, every shard sees the full corpus.
func TestTrafficShardDecomposition(t *testing.T) {
	cfg := CampaignConfig{
		Seed:             99,
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
		Modes:            []browser.Mode{browser.ModeH3},
		Traffic:          &traffic.Config{Users: 10, UsersPerShard: 4, ArrivalRate: 1, Duration: time.Second},
	}
	corpus := webgen.Generate(webgen.Config{NumPages: 12, MeanResources: 5, Seed: 99})
	jobs := shardCampaign(cfg, corpus)
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(jobs))
	}
	wantRanges := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	for i, job := range jobs {
		if job.lo != wantRanges[i][0] || job.hi != wantRanges[i][1] || job.shard != i {
			t.Fatalf("job %d: shard %d range [%d,%d), want %v", i, job.shard, job.lo, job.hi, wantRanges[i])
		}
	}
}

func TestTrafficRejectsIncompatibleConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"consecutive", func(c *CampaignConfig) { c.Consecutive = true }},
		{"trace-phases", func(c *CampaignConfig) { c.TracePhases = true }},
		{"qlog", func(c *CampaignConfig) { c.QlogDir = t.TempDir() }},
		{"bad-traffic", func(c *CampaignConfig) { c.Traffic.Users = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CampaignConfig{
				Seed:         7,
				CorpusConfig: webgen.Config{NumPages: 4, MeanResources: 4},
				Traffic:      smallTraffic(),
			}
			tc.mut(&cfg)
			if _, err := RunCampaign(cfg); err == nil {
				t.Fatal("incompatible traffic campaign accepted")
			}
			if err := cfg.Validate(); err == nil {
				t.Fatal("Validate accepted what RunCampaign rejects")
			}
		})
	}
	// A sampled HAR reservoir rides in the traffic checkpoint, so
	// sampled retention combines with a traffic campaign.
	sampled := CampaignConfig{Traffic: smallTraffic(), Retention: har.Retention{Kind: har.RetainSample, Sample: 8}}
	if err := sampled.Validate(); err != nil {
		t.Fatalf("traffic with sampled retention: %v", err)
	}
}

// goldenTrafficSHA256 pins the exact dataset bytes of the reference
// population campaign (seed 2022, 24 pages, two vantages, 48 users split
// into 20-user shards, three epochs) — the open-loop counterpart of
// goldenDatasetSHA256. Any change to arrival generation, session plans,
// TTL cache semantics, single-flight collapsing, or the epoch hand-off
// perturbs these bytes.
const goldenTrafficSHA256 = "7871aefa6f5bbdd3f24e9464603409f73110d6830be7d51c92c3fd5aa1ad4251"

// TestTrafficGoldenDataset runs the pinned population campaign at one
// and at four workers, asserting byte-identity.
func TestTrafficGoldenDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard population campaign; skipped with -short")
	}
	variants := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"Workers1", func(c *CampaignConfig) { c.Workers = 1 }},
		{"Workers4", func(c *CampaignConfig) { c.Workers = 4 }},
	}
	var ref *Dataset
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := goldenTrafficConfig()
			v.mut(&cfg)
			ds, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(harJSON(t, ds))
			if got := hex.EncodeToString(sum[:]); got != goldenTrafficSHA256 {
				t.Fatalf("dataset hash %s, want golden %s", got, goldenTrafficSHA256)
			}
			if ref == nil {
				ref = ds
			} else {
				// The emergent outputs are part of the deterministic
				// contract too, at every worker count.
				if !reflect.DeepEqual(ds.Traffic, ref.Traffic) {
					t.Fatalf("traffic report differs across worker counts:\n%+v\n%+v", ds.Traffic, ref.Traffic)
				}
				if !accJSONEqual(t, ds, ref) {
					t.Fatal("metric accumulator differs across worker counts")
				}
			}
		})
	}
}

// goldenTrafficSampleSHA256 pins goldenTrafficConfig's dataset under
// sample:6 retention.
const goldenTrafficSampleSHA256 = "bae9c4b2e88d4c15066728ec1d02706113ad93bc02c7aeb8b00c80c4b80538d4"

// TestTrafficKeptLogsNeverReused: a shard's sink hands the PageLogs it
// did not keep to later visits (visitSink.newLog), and never one it
// kept, whose entries the dataset shares. The pinned population
// campaign keeps its bytes under RetainAll and under sample:6, so no
// kept log was filled again; and RetainNone, which reuses every log,
// folds the very metrics RetainAll does.
func TestTrafficKeptLogsNeverReused(t *testing.T) {
	run := func(ret har.Retention) *Dataset {
		cfg := goldenTrafficConfig()
		cfg.Retention = ret
		cfg.Workers = 1
		ds, err := RunCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	all := run(har.Retention{Kind: har.RetainAll})
	for _, tc := range []struct {
		ds     *Dataset
		golden string
	}{
		{all, goldenTrafficSHA256},
		{run(har.Retention{Kind: har.RetainSample, Sample: 6}), goldenTrafficSampleSHA256},
	} {
		sum := sha256.Sum256(harJSON(t, tc.ds))
		if got := hex.EncodeToString(sum[:]); got != tc.golden {
			t.Fatalf("%d retained pages: dataset hash %s, want golden %s", tc.ds.Stats.PagesRetained, got, tc.golden)
		}
	}
	none := run(har.Retention{Kind: har.RetainNone})
	if none.Stats.PagesFolded != all.Stats.PagesFolded || !accJSONEqual(t, none, all) {
		t.Fatal("RetainNone folded other metrics than RetainAll")
	}
}

func goldenTrafficConfig() CampaignConfig {
	return CampaignConfig{
		Seed:             2022,
		CorpusConfig:     webgen.Config{NumPages: 24, MeanResources: 12},
		Vantages:         vantage.Points()[:2],
		ProbesPerVantage: 1,
		Traffic: &traffic.Config{
			Users:         48,
			UsersPerShard: 20,
			ArrivalRate:   2,
			Duration:      30 * time.Second,
			EpochInterval: 10 * time.Second,
			CacheTTL:      15 * time.Second,
			ThinkTime:     2 * time.Second,
			SessionVisits: 3,
		},
	}
}

func accJSONEqual(t *testing.T, a, b *Dataset) bool {
	t.Helper()
	ab, err := json.Marshal(a.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

func TestPopCacheExperiment(t *testing.T) {
	base := CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 10},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	}
	tc := traffic.Config{
		Users: 20, ArrivalRate: 1, Duration: 15 * time.Second,
		EpochInterval: 5 * time.Second, CacheTTL: 10 * time.Second,
		ThinkTime: time.Second, SessionVisits: 2,
	}
	rows := runSweep(t, popCacheArms, ReportInputs{Campaign: base, Pop: tc, PopSizes: []int{10, 20}})
	if len(rows) != 6 { // 2 sizes × 3 protocols
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Visits == 0 {
			t.Fatalf("users=%d mode %s: no visits", r.Users, r.Mode)
		}
		if r.HitRate <= 0 || r.HitRate >= 1 {
			t.Fatalf("users=%d mode %s: hit rate %v", r.Users, r.Mode, r.HitRate)
		}
		if r.ColdPages == 0 {
			t.Fatalf("users=%d mode %s: no cold visits in a TTL'd cache", r.Users, r.Mode)
		}
	}
	out := RenderPopCache(rows)
	for _, want := range []string{"users", "hit rate", "0-RTT", "h3", "http/1.1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}

	// The sweep rejects malformed traffic shapes and sizes up front.
	popcache := artifactRow(t, "popcache")
	if _, err := NewPlan([]Artifact{popcache}, ReportInputs{Campaign: base, PopSizes: []int{10}}, nil); err == nil {
		t.Fatal("empty traffic config accepted")
	}
	if _, err := NewPlan([]Artifact{popcache}, ReportInputs{Campaign: base, Pop: tc, PopSizes: []int{0}}, nil); err == nil {
		t.Fatal("zero population size accepted")
	}
}

// TestPopCacheSizes pins the sweep's default sizes and the check that
// covers them: a baseline under 4 users defaults to a size-0 population.
func TestPopCacheSizes(t *testing.T) {
	tc := traffic.Config{Users: 64, ArrivalRate: 2, Duration: time.Minute}
	if got, err := PopCacheSizes(tc, nil); err != nil || !slices.Equal(got, []int{16, 64, 256}) {
		t.Fatalf("default sizes: %v, %v", got, err)
	}
	if got, err := PopCacheSizes(tc, []int{5, 7}); err != nil || !slices.Equal(got, []int{5, 7}) {
		t.Fatalf("explicit sizes: %v, %v", got, err)
	}
	tc.Users = 3
	if _, err := PopCacheSizes(tc, nil); err == nil || !strings.Contains(err.Error(), "population size 0") {
		t.Fatalf("3-user baseline: %v, want a size-0 error", err)
	}
	if _, err := PopCacheSizes(tc, []int{3}); err != nil {
		t.Fatalf("explicit sizes override the default sweep: %v", err)
	}
}

// goldenCheckpointSHA256 pins the checkpoint files TestTrafficCheckpointResume
// writes, by run and file: their order and format, edge cache dumps
// included, are what a resumed shard reads.
var goldenCheckpointSHA256 = [3]map[string]string{
	{
		"traffic_h2_utah_p0_s0.ckpt.json": "db79d1fad3588f4a167cb4076a1103a7037d54e89457a354cc76a8836055dd4a",
		"traffic_h3_utah_p0_s0.ckpt.json": "665f2980580df661300659e4378228d0b8837e5b141f002107dc9c2eaa622b39",
	},
	{
		"traffic_h2_utah_p0_s0.ckpt.json": "c2f86641d76fd4892569dc0e60f2767e723bfa3ddefcc1a6fe537e60e26b6d1e",
		"traffic_h3_utah_p0_s0.ckpt.json": "391eeaa1e046beda7e2e2e1e634a753d323f93b001fe2ed971db72555bad8639",
	},
	{
		"traffic_h2_utah_p0_s0.ckpt.json": "b8d7c2cb546d9aa27593a590e8aab4964562679281058fed5f0cb7a35ec9a10a",
		"traffic_h3_utah_p0_s0.ckpt.json": "821099dfafe881add5485754e34179ffe9e622eb1f8ac35318c58757d381c69a",
	},
}

// TestTrafficCheckpointResume kills a population campaign after every
// epoch (HaltAfterEpochs) and resumes it from its checkpoints until it
// completes, asserting the stitched-together run is byte-identical to an
// uninterrupted one — dataset, traffic report, and metric sketches — and
// that every checkpoint it wrote matches goldenCheckpointSHA256.
func TestTrafficCheckpointResume(t *testing.T) {
	uninterrupted := trafficCampaign(t, nil)
	want := harJSON(t, uninterrupted)

	dir := t.TempDir()
	withCkpt := func(c *CampaignConfig) {
		c.Traffic.CheckpointDir = dir
		c.Traffic.HaltAfterEpochs = 1
	}
	// Three epochs, one per process "life": runs 1 and 2 halt after
	// writing their checkpoint, run 3 reaches the horizon.
	var final *Dataset
	for run := 0; run < 3; run++ {
		final = trafficCampaign(t, withCkpt)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != len(goldenCheckpointSHA256[run]) {
			t.Fatalf("run %d left %d files, want %d", run, len(files), len(goldenCheckpointSHA256[run]))
		}
		for _, f := range files {
			blob, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got, want := hex.EncodeToString(sum[:]), goldenCheckpointSHA256[run][f.Name()]; got != want {
				t.Errorf("run %d: %s hash %s, want golden %s", run, f.Name(), got, want)
			}
		}
	}
	if got := harJSON(t, final); string(got) != string(want) {
		t.Fatal("resumed dataset differs from uninterrupted run")
	}
	if !reflect.DeepEqual(final.Traffic, uninterrupted.Traffic) {
		t.Fatalf("resumed traffic report differs:\n%+v\n%+v", final.Traffic, uninterrupted.Traffic)
	}
	if !accJSONEqual(t, final, uninterrupted) {
		t.Fatal("resumed metric accumulator differs")
	}
	if final.Stats.Traffic != uninterrupted.Stats.Traffic {
		t.Fatalf("resumed stats differ: %+v vs %+v", final.Stats.Traffic, uninterrupted.Stats.Traffic)
	}

	// A fourth run finds every shard already at the horizon and returns
	// the checkpointed state verbatim — still byte-identical.
	again := trafficCampaign(t, withCkpt)
	if got := harJSON(t, again); string(got) != string(want) {
		t.Fatal("re-run after completion differs")
	}
}

// TestTrafficSampledRetention checks that sampled retention composes
// with the population engine: the reservoir lives in the shared visit
// sink and in the checkpoint, so a sample:N campaign is byte-identical
// across worker counts and across a kill/resume chain.
func TestTrafficSampledRetention(t *testing.T) {
	sampled := func(mut func(*CampaignConfig)) *Dataset {
		return trafficCampaign(t, func(c *CampaignConfig) {
			c.Retention = har.Retention{Kind: har.RetainSample, Sample: 4}
			c.Traffic.UsersPerShard = 15 // 3 shards per mode
			mut(c)
		})
	}
	ref := sampled(func(*CampaignConfig) {})
	want := harJSON(t, ref)
	for mode, log := range ref.Logs {
		if len(log.Pages) != 3*4 {
			t.Fatalf("%v: %d retained pages, want 4 from each of 3 shards", mode, len(log.Pages))
		}
	}
	if ref.Stats.PagesRetained != 24 || ref.Stats.PagesFolded != ref.Traffic.Counters.VisitsCompleted {
		t.Fatalf("stats folded/retained = %d/%d, completed %d",
			ref.Stats.PagesFolded, ref.Stats.PagesRetained, ref.Traffic.Counters.VisitsCompleted)
	}
	for _, workers := range []int{2, 4} {
		ds := sampled(func(c *CampaignConfig) { c.Workers = workers })
		if got := harJSON(t, ds); string(got) != string(want) {
			t.Fatalf("sampled population dataset differs at workers=%d", workers)
		}
	}

	dir := t.TempDir()
	var final *Dataset
	for run := 0; run < 3; run++ {
		final = sampled(func(c *CampaignConfig) {
			c.Traffic.CheckpointDir = dir
			c.Traffic.HaltAfterEpochs = 1
		})
	}
	if got := harJSON(t, final); string(got) != string(want) {
		t.Fatal("resumed sampled dataset differs from uninterrupted run")
	}
	if !accJSONEqual(t, final, ref) || final.Stats.PagesFolded != ref.Stats.PagesFolded {
		t.Fatal("resumed sampled campaign folded different visits")
	}
}

// TestTrafficCheckpointConfigMismatch pins the resume guard: a checkpoint
// written under one campaign config must not resume under another, and
// the error names both config digests. Where and when a run halts is not
// part of the config.
func TestTrafficCheckpointConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	withCkpt := func(mut func(*CampaignConfig)) CampaignConfig {
		cfg := CampaignConfig{
			Seed:             7,
			CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 20},
			Vantages:         vantage.Points()[:1],
			ProbesPerVantage: 1,
			Modes:            []browser.Mode{browser.ModeH3},
			Traffic:          smallTraffic(),
			Workers:          1,
		}
		cfg.Traffic.CheckpointDir = dir
		cfg.Traffic.HaltAfterEpochs = 1
		mut(&cfg)
		return cfg
	}
	written := withCkpt(func(*CampaignConfig) {})
	if _, err := RunCampaign(written); err != nil {
		t.Fatal(err)
	}
	wrote := written.withDefaults().checkpointDigest(12)

	cases := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"arrival-rate", func(c *CampaignConfig) { c.Traffic.ArrivalRate = 3 }},
		{"cache-ttl", func(c *CampaignConfig) { c.Traffic.CacheTTL = 20 * time.Second }},
		{"corpus-size", func(c *CampaignConfig) { c.CorpusConfig.NumPages = 13 }},
		{"loss-rate", func(c *CampaignConfig) { c.LossRate = 0.01 }},
		{"retention", func(c *CampaignConfig) { c.Retention = har.Retention{Kind: har.RetainNone} }},
		{"impairment", func(c *CampaignConfig) {
			im := simnet.GilbertElliott(0.01, 4)
			c.Impairment = &im
		}},
		{"link-trace", func(c *CampaignConfig) {
			tl, err := traces.Profile("lte")
			if err != nil {
				t.Fatal(err)
			}
			c.LinkTrace = tl
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := withCkpt(tc.mut)
			_, err := RunCampaign(cfg)
			if err == nil {
				t.Fatal("checkpoint resumed under a different campaign config")
			}
			now := cfg.withDefaults().checkpointDigest(cfg.CorpusConfig.NumPages)
			if now == wrote || !strings.Contains(err.Error(), wrote) || !strings.Contains(err.Error(), now) {
				t.Fatalf("error %q does not name both digests %s and %s", err, wrote, now)
			}
		})
	}

	// Same campaign, different halt schedule: resumes to completion.
	if _, err := RunCampaign(withCkpt(func(c *CampaignConfig) { c.Traffic.HaltAfterEpochs = 0 })); err != nil {
		t.Fatalf("resume with another halt schedule: %v", err)
	}
}
