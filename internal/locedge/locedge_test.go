package locedge

import (
	"testing"

	"h3cdn/internal/cdn"
)

func TestClassifyKnownSignatures(t *testing.T) {
	cases := []struct {
		headers  map[string]string
		provider string
	}{
		{map[string]string{"server": "gws"}, "Google"},
		{map[string]string{"via": "1.1 google"}, "Google"},
		{map[string]string{"server": "cloudflare"}, "Cloudflare"},
		{map[string]string{"cf-ray": "74f2b1"}, "Cloudflare"},
		{map[string]string{"server": "AmazonS3"}, "Amazon"},
		{map[string]string{"via": "1.1 cloudfront"}, "Amazon"},
		{map[string]string{"server": "AkamaiGHost"}, "Akamai"},
		{map[string]string{"server": "Fastly"}, "Fastly"},
		{map[string]string{"x-served-by": "cache-bwi5120"}, "Fastly"},
		{map[string]string{"x-msedge-ref": "Ref-A"}, "Microsoft"},
		{map[string]string{"server": "LiteSpeed"}, "QUIC.Cloud"},
	}
	for _, tc := range cases {
		got := Classify(tc.headers)
		if !got.IsCDN || got.Provider != tc.provider {
			t.Fatalf("Classify(%v) = %+v, want %s", tc.headers, got, tc.provider)
		}
	}
}

func TestClassifyNonCDN(t *testing.T) {
	for _, h := range []map[string]string{
		nil,
		{},
		{"server": "nginx/1.22"},
		{"server": "Apache/2.4", "x-powered-by": "PHP"},
	} {
		if got := Classify(h); got.IsCDN {
			t.Fatalf("Classify(%v) = %+v, want non-CDN", h, got)
		}
	}
}

func TestClassifyCaseInsensitive(t *testing.T) {
	got := Classify(map[string]string{"Server": "CLOUDFLARE"})
	if !got.IsCDN || got.Provider != "Cloudflare" {
		t.Fatalf("case-insensitive classify failed: %+v", got)
	}
}

// TestRegistryRoundTrip: every provider in the cdn registry must be
// classifiable from the headers its edges emit — otherwise the pipeline
// would silently drop that provider's traffic from CDN statistics.
func TestRegistryRoundTrip(t *testing.T) {
	for _, p := range cdn.Registry() {
		h := map[string]string{"server": p.ServerHeader, "x-cache": "HIT"}
		if p.ViaHeader != "" {
			h["via"] = p.ViaHeader
		}
		got := Classify(h)
		if !got.IsCDN || got.Provider != p.Name {
			t.Fatalf("registry provider %s: classified as %+v", p.Name, got)
		}
	}
}
