// Package locedge reimplements the role of LocEdge (Huang et al.,
// SIGCOMM'22 demo): identifying whether a web resource was served by a
// CDN, and by which provider, from its HTTP response headers. The paper
// uses LocEdge to split the 36,057 collected requests into CDN and
// non-CDN populations (Table II) and to attribute resources to providers
// (Figs. 2, 4, 5).
package locedge

import "strings"

// Classification is the outcome for one response.
type Classification struct {
	IsCDN    bool
	Provider string // empty when IsCDN is false
}

// signature maps a header fingerprint to a provider.
type signature struct {
	header   string // lower-case header name
	contains string // lower-case substring to match ("" = presence)
	provider string
}

// signatures are checked in order; first match wins. They mirror the
// real-world fingerprints LocEdge uses (Server banners, Via tags, and
// provider-specific headers).
var signatures = []signature{
	{"server", "gws", "Google"},
	{"via", "google", "Google"},
	{"server", "cloudflare", "Cloudflare"},
	{"cf-ray", "", "Cloudflare"},
	{"server", "amazons3", "Amazon"},
	{"via", "cloudfront", "Amazon"},
	{"x-amz-cf-pop", "", "Amazon"},
	{"server", "akamaighost", "Akamai"},
	{"x-akamai-transformed", "", "Akamai"},
	{"server", "fastly", "Fastly"},
	{"x-served-by", "cache-", "Fastly"},
	{"server", "ecacc", "Microsoft"},
	{"x-msedge-ref", "", "Microsoft"},
	{"server", "litespeed", "QUIC.Cloud"},
	{"x-qc-pop", "", "QUIC.Cloud"},
}

// Classify inspects response headers (case-insensitive keys) and returns
// the CDN classification.
func Classify(headers map[string]string) Classification {
	if len(headers) == 0 {
		return Classification{}
	}
	lower := make(map[string]string, len(headers))
	for k, v := range headers {
		lower[strings.ToLower(k)] = strings.ToLower(v)
	}
	for _, sig := range signatures {
		v, ok := lower[sig.header]
		if !ok {
			continue
		}
		if sig.contains == "" || strings.Contains(v, sig.contains) {
			return Classification{IsCDN: true, Provider: sig.provider}
		}
	}
	return Classification{}
}
