package core

import (
	"testing"

	"h3cdn/internal/webgen"
)

// BenchmarkShardSetup measures the per-shard universe construction cost
// at bench scale (64-page corpus, full CDN registry) — the fixed overhead
// every (mode, vantage, probe, page-range) job pays before its first
// visit. The campaign engine amortizes the corpus- and registry-derived
// part of this across shards via the shared Topology.
func BenchmarkShardSetup(b *testing.B) {
	corpus := webgen.Generate(webgen.Config{Seed: 2022, NumPages: 64})
	topo := NewTopology(corpus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := NewUniverse(UniverseConfig{Seed: 1, Corpus: corpus, Topology: topo})
		if err != nil {
			b.Fatal(err)
		}
		u.Close()
	}
}
