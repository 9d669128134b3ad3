package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/sketch"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// ckptFixture is a sampled-retention population shard, its sink, and a
// valid checkpoint of it after one of three epochs, under the shard's
// own seed and config digest, with one restored edge cache.
type ckptFixture struct {
	cfg   CampaignConfig
	job   shardJob
	topo  *Topology
	valid []byte
}

func checkpointFixture(t testing.TB) ckptFixture {
	t.Helper()
	fx := ckptFixture{
		cfg: CampaignConfig{
			Seed:         7,
			CorpusConfig: webgen.Config{Seed: 7, NumPages: 6, MeanResources: 10},
			Retention:    har.Retention{Kind: har.RetainSample, Sample: 4},
			Traffic: &traffic.Config{
				Users: 10, ArrivalRate: 0.5, Duration: 30 * time.Second, EpochInterval: 10 * time.Second,
			},
		},
		job: shardJob{mode: browser.ModeH3, point: vantage.Points()[0], lo: 0, hi: 10},
	}
	fx.topo = NewTopology(webgen.Generate(fx.cfg.CorpusConfig))
	sink := newVisitSink(fx.cfg, fx.job)
	for i := 1; i <= 6; i++ {
		sink.fold(&har.PageLog{PLT: time.Duration(i) * 100 * time.Millisecond}, sketch.VisitSample{
			PLTNs: int64(i) * 1e8, Entries: 3, CacheHits: 1, Warm: i%2 == 0,
		})
	}
	sink.Report = &traffic.Report{Epochs: []traffic.EpochStat{{Epoch: 0, Visits: 6}}}
	state, err := json.Marshal(&sink.sinkState)
	if err != nil {
		t.Fatal(err)
	}
	fx.valid, err = json.Marshal(&traffic.Checkpoint{
		Version: traffic.CheckpointVersion, Seed: fx.seed(), Config: fx.digest(), Epoch: 1, Clock: 10 * time.Second,
		Users: []traffic.UserMemory{{User: 3, AltSvc: []string{"a.sim"}}},
		Edges: []traffic.EdgeCache{{Provider: "Cloudflare", Entries: []cdn.CacheEntry{{Host: "a.sim", Path: "/", ExpiresAt: time.Second}}}},
		Sink:  state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx ckptFixture) seed() uint64 { return shardSeed(fx.cfg, fx.job) }

func (fx ckptFixture) digest() string {
	return fx.cfg.checkpointDigest(len(fx.topo.Corpus().Pages))
}

// restoreBytes writes blob to the shard's checkpoint file in dir and
// restores the fixture's shard from it.
func (fx ckptFixture) restoreBytes(t testing.TB, dir string, blob []byte) (*visitSink, map[string]*cdn.Cache, *traffic.Checkpoint, error) {
	t.Helper()
	path := filepath.Join(dir, "traffic_"+fx.job.slug()+".ckpt.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sink := newVisitSink(fx.cfg, fx.job)
	caches := make(map[string]*cdn.Cache)
	cp, err := restoreCheckpoint(path, fx.seed(), fx.digest(), fx.cfg.Traffic.WithDefaults().Epochs(), sink, caches)
	return sink, caches, cp, err
}

// resumeEpoch resumes the shard from its checkpoint in dir for one epoch
// and returns the checkpoint that epoch wrote (the one in dir
// unchanged when there was no epoch left to run).
func (fx ckptFixture) resumeEpoch(dir string) (*traffic.Checkpoint, error) {
	tc := *fx.cfg.Traffic
	tc.CheckpointDir, tc.HaltAfterEpochs = dir, 1
	cfg := fx.cfg
	cfg.Traffic = &tc
	err := runEpochs(cfg, fx.topo, fx.job, newVisitSink(cfg, fx.job), &httpsim.Pools{}, &sessionPools{}, nil)
	if err != nil {
		return nil, err
	}
	return traffic.Load(filepath.Join(dir, "traffic_"+fx.job.slug()+".ckpt.json"))
}

// carried reports the first provider whose cache the checkpoint from
// held entries for and the one to did not, or "".
func carried(from, to *traffic.Checkpoint) string {
	kept := make(map[string]bool, len(to.Edges))
	for _, ec := range to.Edges {
		kept[ec.Provider] = len(ec.Entries) > 0
	}
	for _, ec := range from.Edges {
		if len(ec.Entries) > 0 && !kept[ec.Provider] {
			return ec.Provider
		}
	}
	return ""
}

// TestCheckpointRejectsUnmergeableSink pins the loader's guard: a
// checkpoint whose sketches carry another α or histogram bounds used to
// resume and then panic in the stitcher's Merge; now it fails the load,
// as do a missing accumulator or reservoir, out-of-range epochs, and an
// edge cache of an unknown provider or a second one of a provider. The
// valid checkpoint restores its cache and resumes for an epoch that
// carries the cache on.
func TestCheckpointRejectsUnmergeableSink(t *testing.T) {
	fx := checkpointFixture(t)
	dir := t.TempDir()
	sink, caches, cp, err := fx.restoreBytes(t, dir, fx.valid)
	if err != nil || cp == nil || sink.Stats.PagesFolded != 6 {
		t.Fatalf("valid checkpoint: cp=%v err=%v", cp, err)
	}
	if len(caches) != 1 || caches["Cloudflare"].Len() != 1 {
		t.Fatalf("restored caches %v, want Cloudflare's one entry", caches)
	}
	next, err := fx.resumeEpoch(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 || next.Config != cp.Config {
		t.Fatalf("resumed epoch wrote epoch %d under %s", next.Epoch, next.Config)
	}
	if p := carried(cp, next); p != "" {
		t.Fatalf("resumed epoch dropped %s's cache", p)
	}
	var st sinkState
	if err := json.Unmarshal(next.Sink, &st); err != nil {
		t.Fatal(err)
	}
	if es := st.Report.Epochs; len(es) != 2 || es[1].Visits == 0 || es[1].CacheHits+es[1].CacheMisses == 0 {
		t.Fatalf("resumed epoch served nothing: %+v", es)
	}
	for name, edit := range map[string][2]string{
		"alpha":             {`"alpha":0.01,"keys"`, `"alpha":0.02,"keys"`},
		"metrics alpha":     {`"metrics":{"alpha":0.01,`, `"metrics":{"alpha":0.02,`},
		"bounds":            {`"bounds":[50,`, `"bounds":[40,`},
		"no metrics":        {`"metrics":{`, `"metrics":null,"x":{`},
		"no reservoir":      {`"reservoir":{`, `"reservoir":null,"x":{`},
		"epoch":             {`"epoch":1,`, `"epoch":-1,`},
		"report epoch":      {`"epochs":[{"epoch":0`, `"epochs":[{"epoch":1`},
		"negative epoch":    {`"epochs":[{"epoch":0`, `"epochs":[{"epoch":-2`},
		"unknown provider":  {`"provider":"Cloudflare"`, `"provider":"NotACDN"`},
		"repeated provider": {`"edges":[`, `"edges":[{"provider":"Cloudflare","entries":[]},`},
	} {
		blob := strings.Replace(string(fx.valid), edit[0], edit[1], 1)
		if blob == string(fx.valid) {
			t.Fatalf("%s: fixture has no %q", name, edit[0])
		}
		if _, caches, _, err := fx.restoreBytes(t, t.TempDir(), []byte(blob)); err == nil || len(caches) != 0 {
			t.Errorf("%s: corrupted checkpoint restored %d caches, error %v", name, len(caches), err)
		}
	}
}

// FuzzCheckpoint feeds the loader truncated, corrupted and hostile
// checkpoint bytes. Each must fail with an error or restore a sink the
// shard can carry on with — fold into, re-encode for the next
// checkpoint, hand to the stitcher and merge there — without a panic,
// and caches that the next epoch serves from and writes back, every
// provider's entries with them.
func FuzzCheckpoint(f *testing.F) {
	fx := checkpointFixture(f)
	valid := fx.valid
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add([]byte(strings.Replace(string(valid), `"alpha":0.01,"keys"`, `"alpha":0.5,"keys"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"bounds":[50,`, `"bounds":[`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"epochs":[{"epoch":0`, `"epochs":[{"epoch":-1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"metrics":{`, `"metrics":null,"x":{`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"metrics":{"alpha":0.01,"groups":`, `"metrics":{"alpha":0.3,"x":`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"provider":"Cloudflare"`, `"provider":"NotACDN"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"edges":[`, `"edges":[{"provider":"Cloudflare","entries":[]},`, 1)))
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		sink, _, cp, err := fx.restoreBytes(t, dir, blob)
		if err != nil || cp == nil {
			return
		}
		sink.fold(&har.PageLog{}, sketch.VisitSample{PLTNs: 5e8, Entries: 1, CacheMisses: 1})
		sink.Acc.Group(sketch.Key{Mode: "new"}).Fold(sketch.VisitSample{PLTNs: 7e8})
		_, _ = json.Marshal(&sink.sinkState) // may fail (NaN), must not panic
		r := sink.result()
		sketch.NewAccumulator(sketch.DefaultAlpha).Merge(r.acc)
		(&traffic.Report{}).Merge(r.traffic)

		next, err := fx.resumeEpoch(dir)
		if err != nil {
			return // an encoding failure (NaN), not a panic
		}
		if p := carried(cp, next); p != "" {
			t.Fatalf("the resumed epoch dropped %s's cache", p)
		}
	})
}
