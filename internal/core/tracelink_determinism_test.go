package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// goldenTraceLinkSHA256 pins the campaign dataset with the download
// access link driven by the synthetic "lte" capacity trace plus
// Gilbert–Elliott bursty loss — the trace-replay counterpart of
// goldenImpairedSHA256. TraceLink.Serialize is a pure function of
// (virtual time, size), so the replay position a packet observes depends
// only on the simulation trajectory, never on worker scheduling; this
// test is the proof, across Workers 1 / Workers 4.
const goldenTraceLinkSHA256 = "7757c078fc7982676739d631a853ae0a4d891721806f146fd2a511d5bf7ed29d"

// TestTraceLinkCampaignGoldenDataset is the fourth pinned golden:
// variable-link replay composed with the fault-injection layer.
func TestTraceLinkCampaignGoldenDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale trace-replay campaign; skipped with -short")
	}
	tl, err := traces.Profile("lte")
	if err != nil {
		t.Fatal(err)
	}
	ge := simnet.GilbertElliott(0.01, 4)
	variants := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"Workers1", func(c *CampaignConfig) { c.Workers = 1 }},
		{"Workers4", func(c *CampaignConfig) { c.Workers = 4 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := CampaignConfig{
				Seed:             2026,
				CorpusConfig:     webgen.Config{NumPages: 12},
				Vantages:         vantage.Points()[:1],
				ProbesPerVantage: 1,
				LinkTrace:        tl,
				Impairment:       &ge,
			}
			v.mut(&cfg)
			ds, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkHARInvariants(t, ds)
			sum := sha256.Sum256(harJSON(t, ds))
			if got := hex.EncodeToString(sum[:]); got != goldenTraceLinkSHA256 {
				t.Fatalf("trace-link dataset hash %s, want golden %s", got, goldenTraceLinkSHA256)
			}
			if ds.Stats.BurstDrops == 0 {
				t.Fatal("BurstDrops = 0: the fault layer never engaged under trace replay")
			}
		})
	}
}
