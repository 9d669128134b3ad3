package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// goldenDatasetSHA256 pins the exact bytes of the bench-scale campaign
// dataset (seed 2022, 64 pages, three vantages, one probe each). Any
// engine change that perturbs event ordering — scheduler internals,
// timer semantics, delivery scheduling — changes this hash. It was
// recorded before the 4-ary heap + per-path queue rewrite and must
// never drift: heap layout is an implementation detail, the (at, seq)
// dispatch order is the contract. Re-pinned once for the HAR 1.2
// Connect/SSL split — a serialization-only change (the new "ssl" field);
// every timing and ordering invariant was verified unchanged.
const goldenDatasetSHA256 = "57ccb9f40974fcf92c3a424944097c9ad7c817d82f02d7aa6376bc56fbb834dc"

// TestCampaignGoldenDataset runs the pinned campaign at one and at four
// workers, asserting every run is byte-identical to the
// recorded golden hash.
func TestCampaignGoldenDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale campaign (~30s); skipped with -short")
	}
	variants := []struct {
		name string
		mut  func(*CampaignConfig)
	}{
		{"Workers1", func(c *CampaignConfig) { c.Workers = 1 }},
		{"Workers4", func(c *CampaignConfig) { c.Workers = 4 }},
	}
	var events int64
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := CampaignConfig{
				Seed:             2022,
				CorpusConfig:     webgen.Config{NumPages: 64},
				Vantages:         vantage.Points(),
				ProbesPerVantage: 1,
			}
			v.mut(&cfg)
			ds, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkHARInvariants(t, ds)
			sum := sha256.Sum256(harJSON(t, ds))
			if got := hex.EncodeToString(sum[:]); got != goldenDatasetSHA256 {
				t.Fatalf("dataset hash %s, want golden %s", got, goldenDatasetSHA256)
			}
			// The event count is part of the deterministic trace too.
			if ds.Stats.Events <= 0 {
				t.Fatalf("Stats.Events = %d, want > 0", ds.Stats.Events)
			}
			if events == 0 {
				events = ds.Stats.Events
			} else if ds.Stats.Events != events {
				t.Fatalf("Stats.Events = %d, want %d (independent of workers)", ds.Stats.Events, events)
			}
		})
	}
}
