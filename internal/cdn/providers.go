// Package cdn models content delivery networks: a registry of providers
// calibrated to the paper's Table I and Figure 2 (market share and H3
// adoption as of the October 2022 measurement), per-vantage edge servers
// with LRU caches and origin-fetch penalties, and synthesized response
// headers that the locedge classifier recognizes.
package cdn

import "time"

// Provider describes one CDN provider.
type Provider struct {
	// Name identifies the provider ("Google", "Cloudflare", ...).
	Name string
	// ReleaseYear is when the provider announced H3 support (Table I).
	ReleaseYear int
	// PerformanceNote is the provider's own H3 report (Table I).
	PerformanceNote string
	// MarketShare is the fraction of all CDN resources this provider
	// hosts (calibrated so measured adoption reproduces Fig. 2 and
	// Table II).
	MarketShare float64
	// H3Adoption is the probability that one of this provider's
	// hostnames had H3 enabled at measurement time.
	H3Adoption float64
	// PagePresence is the probability the provider appears on a page
	// at all (Fig. 4a: top providers exceed 50%).
	PagePresence float64
	// EdgeDelay is the one-way propagation delay from a vantage point
	// to this provider's edge (giants deploy closer).
	EdgeDelay time.Duration
	// EdgeBandwidth is the edge link rate in bits/second.
	EdgeBandwidth float64
	// SharedHosts is how many globally shared hostnames the provider
	// operates (fonts/library CDNs reused across sites); these drive
	// cross-page connection resumption (§VI-D).
	SharedHosts int
	// H3Preloaded marks providers whose H3 support browsers know
	// without Alt-Svc discovery (Chrome shipped QUIC hints for Google
	// properties, matching Google's near-total measured H3 share).
	H3Preloaded bool
	// H3PathFraction is, for an H3-enabled hostname, the fraction of
	// its resources actually served over H3: providers roll H3 out
	// edge by edge, so a hostname's requests split across H2 and H3
	// connections ("deployment density", §VI-C).
	H3PathFraction float64
	// ServerHeader and extra headers mimic the provider's real
	// response signature, consumed by internal/locedge.
	ServerHeader string
	ViaHeader    string
	ExtraHeader  string // "key=value" provider-specific marker
}

// Registry returns the built-in provider table. Shares sum to 1.0 over
// CDN traffic; H3 adoption rates are set so that the measured Fig. 2 /
// Table II splits re-emerge from the pipeline:
//
//	H3 share of CDN requests ≈ Σ share·adoption ≈ 0.385 (25.8/67.0)
//	Google ≈ 50% of H3 CDN requests, Cloudflare ≈ 45%.
func Registry() []Provider {
	return []Provider{
		{
			Name:            "Google",
			ReleaseYear:     2021,
			PerformanceNote: "Reduced search latency 2%, video rebuffers 9%, +7% mobile throughput",
			MarketShare:     0.13,
			H3Adoption:      0.95,
			H3PathFraction:  0.97,
			PagePresence:    0.90,
			EdgeDelay:       14 * time.Millisecond,
			EdgeBandwidth:   400e6,
			SharedHosts:     8,
			H3Preloaded:     true,
			ServerHeader:    "gws",
			ViaHeader:       "1.1 google",
			ExtraHeader:     "x-goog-generation=1",
		},
		{
			Name:            "Cloudflare",
			ReleaseYear:     2019,
			PerformanceNote: "H3 12.4% better TTFB, 1-4% worse PLT than H2",
			MarketShare:     0.34,
			H3Adoption:      0.58,
			H3PathFraction:  0.80,
			PagePresence:    0.80,
			EdgeDelay:       16 * time.Millisecond,
			EdgeBandwidth:   400e6,
			SharedHosts:     10,
			ServerHeader:    "cloudflare",
			ViaHeader:       "",
			ExtraHeader:     "cf-ray=74f2b1",
		},
		{
			Name:            "Amazon",
			ReleaseYear:     2022,
			PerformanceNote: "N/A",
			MarketShare:     0.28,
			H3Adoption:      0.08,
			H3PathFraction:  0.75,
			PagePresence:    0.65,
			EdgeDelay:       22 * time.Millisecond,
			EdgeBandwidth:   300e6,
			SharedHosts:     6,
			ServerHeader:    "AmazonS3",
			ViaHeader:       "1.1 cloudfront",
			ExtraHeader:     "x-amz-cf-pop=IAD89",
		},
		{
			Name:            "Akamai",
			ReleaseYear:     2023,
			PerformanceNote: "+6.5% users with TAT under 25ms; +12.7% requests above 1 Mbps",
			MarketShare:     0.08,
			H3Adoption:      0.04,
			H3PathFraction:  0.75,
			PagePresence:    0.55,
			EdgeDelay:       20 * time.Millisecond,
			EdgeBandwidth:   300e6,
			SharedHosts:     5,
			ServerHeader:    "AkamaiGHost",
			ViaHeader:       "",
			ExtraHeader:     "x-akamai-transformed=9",
		},
		{
			Name:            "Fastly",
			ReleaseYear:     2021,
			PerformanceNote: "QUIC can represent an 8% increase in throughput",
			MarketShare:     0.11,
			H3Adoption:      0.08,
			H3PathFraction:  0.75,
			PagePresence:    0.35,
			EdgeDelay:       20 * time.Millisecond,
			EdgeBandwidth:   300e6,
			SharedHosts:     5,
			ServerHeader:    "Fastly",
			ViaHeader:       "1.1 varnish",
			ExtraHeader:     "x-served-by=cache-bwi5120",
		},
		{
			Name:            "Microsoft",
			ReleaseYear:     2022,
			PerformanceNote: "N/A",
			MarketShare:     0.04,
			H3Adoption:      0.05,
			H3PathFraction:  0.75,
			PagePresence:    0.30,
			EdgeDelay:       24 * time.Millisecond,
			EdgeBandwidth:   200e6,
			SharedHosts:     2,
			ServerHeader:    "ECAcc",
			ViaHeader:       "",
			ExtraHeader:     "x-msedge-ref=Ref-A",
		},
		{
			Name:            "QUIC.Cloud",
			ReleaseYear:     2021,
			PerformanceNote: "H3 turns TTFB from 231ms to 24ms",
			MarketShare:     0.02,
			H3Adoption:      0.90,
			H3PathFraction:  0.90,
			PagePresence:    0.06,
			EdgeDelay:       30 * time.Millisecond,
			EdgeBandwidth:   150e6,
			SharedHosts:     2,
			ServerHeader:    "LiteSpeed",
			ViaHeader:       "",
			ExtraHeader:     "x-qc-pop=NA-US",
		},
	}
}

// ProviderByName returns the registry entry with the given name (ok
// reports whether it exists).
func ProviderByName(name string) (Provider, bool) {
	for _, p := range Registry() {
		if p.Name == name {
			return p, true
		}
	}
	return Provider{}, false
}

// GiantProviders are the four providers Fig. 5 breaks out.
func GiantProviders() []string {
	return []string{"Amazon", "Cloudflare", "Google", "Fastly"}
}
