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
	"h3cdn/internal/sketch"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
)

// checkpointFixture is a sampled-retention population shard's sink and a
// valid checkpoint of it after one of three epochs, under seed 7 and a
// stand-in config digest.
func checkpointFixture(t testing.TB) (cfg CampaignConfig, job shardJob, valid []byte) {
	t.Helper()
	cfg = CampaignConfig{
		Seed:      7,
		Retention: har.Retention{Kind: har.RetainSample, Sample: 4},
		Traffic:   &traffic.Config{Users: 10, Duration: 30 * time.Second, EpochInterval: 10 * time.Second},
	}
	job = shardJob{mode: browser.ModeH3, point: vantage.Points()[0], lo: 0, hi: 10}
	sink := newVisitSink(cfg, job)
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
	valid, err = json.Marshal(&traffic.Checkpoint{
		Version: traffic.CheckpointVersion, Seed: 7, Config: "digest", Epoch: 1, Clock: 10 * time.Second,
		Users: []traffic.UserMemory{{User: 3, AltSvc: []string{"a.sim"}}},
		Edges: []traffic.EdgeCache{{Provider: "p", Entries: []cdn.CacheEntry{{Host: "a.sim", Path: "/", ExpiresAt: time.Second}}}},
		Sink:  state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, job, valid
}

// restoreBytes writes blob to a checkpoint file and restores the
// fixture's shard from it.
func restoreBytes(t testing.TB, cfg CampaignConfig, job shardJob, blob []byte) (*visitSink, *traffic.Checkpoint, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	sink := newVisitSink(cfg, job)
	cp, err := restoreCheckpoint(path, 7, "digest", cfg.Traffic.WithDefaults().Epochs(), sink)
	return sink, cp, err
}

// TestCheckpointRejectsUnmergeableSink pins the loader's guard: a
// checkpoint whose sketches carry another α or histogram bounds used to
// resume and then panic in the stitcher's Merge; now it fails the load,
// as do a missing accumulator or reservoir and out-of-range epochs.
func TestCheckpointRejectsUnmergeableSink(t *testing.T) {
	cfg, job, valid := checkpointFixture(t)
	if sink, cp, err := restoreBytes(t, cfg, job, valid); err != nil || cp == nil || sink.Stats.PagesFolded != 6 {
		t.Fatalf("valid checkpoint: cp=%v err=%v", cp, err)
	}
	for name, edit := range map[string][2]string{
		"alpha":          {`"alpha":0.01,"keys"`, `"alpha":0.02,"keys"`},
		"metrics alpha":  {`"metrics":{"alpha":0.01,`, `"metrics":{"alpha":0.02,`},
		"bounds":         {`"bounds":[50,`, `"bounds":[40,`},
		"no metrics":     {`"metrics":{`, `"metrics":null,"x":{`},
		"no reservoir":   {`"reservoir":{`, `"reservoir":null,"x":{`},
		"epoch":          {`"epoch":1,`, `"epoch":-1,`},
		"report epoch":   {`"epochs":[{"epoch":0`, `"epochs":[{"epoch":1`},
		"negative epoch": {`"epochs":[{"epoch":0`, `"epochs":[{"epoch":-2`},
	} {
		blob := strings.Replace(string(valid), edit[0], edit[1], 1)
		if blob == string(valid) {
			t.Fatalf("%s: fixture has no %q", name, edit[0])
		}
		if _, _, err := restoreBytes(t, cfg, job, []byte(blob)); err == nil {
			t.Errorf("%s: corrupted checkpoint restored without error", name)
		}
	}
}

// FuzzCheckpoint feeds the loader truncated, corrupted and hostile
// checkpoint bytes. Each must fail with an error or restore a sink the
// shard can carry on with — fold into, re-encode for the next
// checkpoint, hand to the stitcher and merge there — without a panic.
func FuzzCheckpoint(f *testing.F) {
	cfg, job, valid := checkpointFixture(f)
	f.Add(valid)
	for _, n := range []int{0, 1, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	f.Add([]byte(strings.Replace(string(valid), `"alpha":0.01,"keys"`, `"alpha":0.5,"keys"`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"bounds":[50,`, `"bounds":[`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"epochs":[{"epoch":0`, `"epochs":[{"epoch":-1`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"metrics":{`, `"metrics":null,"x":{`, 1)))
	f.Add([]byte(strings.Replace(string(valid), `"metrics":{"alpha":0.01,"groups":`, `"metrics":{"alpha":0.3,"x":`, 1)))
	f.Fuzz(func(t *testing.T, blob []byte) {
		sink, cp, err := restoreBytes(t, cfg, job, blob)
		if err != nil || cp == nil {
			return
		}
		sink.fold(&har.PageLog{}, sketch.VisitSample{PLTNs: 5e8, Entries: 1, CacheMisses: 1})
		sink.Acc.Group(sketch.Key{Mode: "new"}).Fold(sketch.VisitSample{PLTNs: 7e8})
		_, _ = json.Marshal(&sink.sinkState) // may fail (NaN), must not panic
		r := sink.result()
		sketch.NewAccumulator(sketch.DefaultAlpha).Merge(r.acc)
		(&traffic.Report{}).Merge(r.traffic)
	})
}
