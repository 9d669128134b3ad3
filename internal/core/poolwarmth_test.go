package core

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"h3cdn/internal/httpsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/webgen"
)

// TestPoolWarmthInvisibleUnderLoss runs every shard of a lossy campaign
// — bursty loss, jitter and reordering, where parked out-of-order chunks
// go back to warm pools and come out again — twice: each on a fresh
// httpsim.Pools, then all on one Pools in reverse job order, so every
// shard but the first finds pools another shard warmed: wire buffers,
// TLS carries and records, and the transport pools' segments, packets,
// payloads, conns and streams, all of which a worker keeps for its
// lifetime. RunCampaign relies on pool state never changing what is
// simulated, so which worker runs which shard cannot reach the dataset:
// every shard's pages, stats and metrics must come out the same both
// ways.
func TestPoolWarmthInvisibleUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("36 lossy shards; skipped with -short")
	}
	im := simnet.GilbertElliott(0.01, 4)
	im.JitterMax = 2 * time.Millisecond
	im.ReorderRate = 0.01
	im.ReorderDelay = 2 * time.Millisecond
	cfg := CampaignConfig{
		Seed:             2022,
		CorpusConfig:     webgen.Config{Seed: 2022, NumPages: 24},
		ProbesPerVantage: 1,
		PagesPerShard:    4,
		Impairment:       &im,
	}.withDefaults()
	topo := NewTopology(webgen.Generate(cfg.CorpusConfig))
	jobs := shardCampaign(cfg, topo.Corpus())
	if len(jobs) != 36 {
		t.Fatalf("%d jobs, want 2 modes × 3 vantages × 6 shards", len(jobs))
	}

	fresh := make([]shardResult, len(jobs))
	for i, job := range jobs {
		fresh[i] = runShard(cfg, topo, job, &httpsim.Pools{})
	}
	warm := &httpsim.Pools{}
	var drops, reordered int64
	for i := len(jobs) - 1; i >= 0; i-- {
		r := runShard(cfg, topo, jobs[i], warm)
		want := fresh[i]
		if r.err != nil || want.err != nil {
			t.Fatalf("shard %s: fresh pools: %v, warm pools: %v", jobs[i].slug(), want.err, r.err)
		}
		drops, reordered = drops+r.stats.BurstDrops, reordered+r.stats.Reordered
		if !reflect.DeepEqual(r.stats, want.stats) {
			t.Fatalf("shard %s: stats on warm pools\n%+v\non fresh ones\n%+v", jobs[i].slug(), r.stats, want.stats)
		}
		for what, pair := range map[string][2]any{"pages": {r.pages, want.pages}, "metrics": {r.acc, want.acc}} {
			got, err := json.Marshal(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			exp, err := json.Marshal(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(exp) {
				t.Fatalf("shard %s: %s differ between warm and fresh pools", jobs[i].slug(), what)
			}
		}
	}
	if drops == 0 || reordered == 0 {
		t.Fatalf("%d burst drops, %d reordered packets: the campaign is not lossy", drops, reordered)
	}
	t.Logf("%d burst drops, %d reordered packets", drops, reordered)
}
