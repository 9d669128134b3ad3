package core

import (
	"testing"
	"time"

	"h3cdn/internal/bytestream"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/webgen"
)

// TestCampaignsLeaveOpaqueRunZero runs a two-worker census campaign and
// a two-worker campaign on bench's lossy profile at small scale, then
// checks that every byte of the shared opaque run is still zero: no
// layer wrote into a payload, delivery, parked chunk or carry it was
// handed as a run. The race detector misses such a write when one
// goroutine makes it; this does not.
func TestCampaignsLeaveOpaqueRunZero(t *testing.T) {
	lossy := simnet.GilbertElliott(0.02, 4)
	lossy.JitterMax = 2 * time.Millisecond
	lossy.ReorderRate = 0.01
	lossy.ReorderDelay = 2 * time.Millisecond
	for _, cfg := range []CampaignConfig{
		{Seed: 2022, CorpusConfig: webgen.Config{NumPages: 8}, ProbesPerVantage: 1, Workers: 2, PagesPerShard: 4},
		{Seed: 7, CorpusConfig: webgen.Config{NumPages: 8}, ProbesPerVantage: 1, Workers: 2, PagesPerShard: 4,
			Impairment: &lossy, Retention: har.Retention{Kind: har.RetainNone}},
	} {
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range bytestream.Opaque(bytestream.MaxOpaque) {
		if b != 0 {
			t.Fatalf("opaque run byte %d is %#x after the campaigns", i, b)
		}
	}
}
