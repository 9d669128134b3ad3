package webgen

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testCorpus(t *testing.T, seed uint64) *Corpus {
	t.Helper()
	return Generate(Config{Seed: seed})
}

func TestCorpusDeterministic(t *testing.T) {
	a, b := testCorpus(t, 42), testCorpus(t, 42)
	if len(a.Pages) != len(b.Pages) {
		t.Fatal("page counts differ")
	}
	for i := range a.Pages {
		if len(a.Pages[i].Resources) != len(b.Pages[i].Resources) {
			t.Fatalf("page %d resource counts differ", i)
		}
		for j := range a.Pages[i].Resources {
			if a.Pages[i].Resources[j] != b.Pages[i].Resources[j] {
				t.Fatalf("page %d resource %d differs", i, j)
			}
		}
	}
	for h, v := range a.H3Support {
		if b.H3Support[h] != v {
			t.Fatalf("H3 support for %s differs", h)
		}
	}
}

func TestCorpusSeedsDiffer(t *testing.T) {
	a, b := testCorpus(t, 1), testCorpus(t, 2)
	same := 0
	for i := range a.Pages {
		if len(a.Pages[i].Resources) == len(b.Pages[i].Resources) {
			same++
		}
	}
	if same == len(a.Pages) {
		t.Fatal("different seeds produced identical resource counts everywhere")
	}
}

func TestCalibrationCDNDominance(t *testing.T) {
	st := testCorpus(t, 7).Stats()
	// Table II: 67% of requests are CDN.
	if st.CDNFraction < 0.55 || st.CDNFraction > 0.75 {
		t.Fatalf("CDN fraction = %.3f, want ~0.67", st.CDNFraction)
	}
	// Fig. 3: ~75% of pages have >50% CDN resources.
	if st.PagesOverHalfCDN < 0.60 || st.PagesOverHalfCDN > 0.90 {
		t.Fatalf("pages over half CDN = %.3f, want ~0.75", st.PagesOverHalfCDN)
	}
}

func TestCalibrationSharedProviders(t *testing.T) {
	st := testCorpus(t, 7).Stats()
	// Paper: 94.8% of pages use at least two providers.
	if st.AtLeastTwoProviders < 0.88 {
		t.Fatalf("pages with >=2 providers = %.3f, want ~0.95", st.AtLeastTwoProviders)
	}
	// Fig. 4a: top-4 provider presence exceeds 50%.
	for _, p := range []string{"Google", "Cloudflare", "Amazon", "Akamai"} {
		if st.ProviderPresence[p] < 0.5 {
			t.Fatalf("%s presence = %.3f, want > 0.5", p, st.ProviderPresence[p])
		}
	}
}

func TestCalibrationResourceCount(t *testing.T) {
	st := testCorpus(t, 7).Stats()
	mean := float64(st.TotalResources) / float64(st.Pages)
	// 36,057/325 ≈ 111 requests per page.
	if mean < 85 || mean > 140 {
		t.Fatalf("mean resources per page = %.1f, want ~111", mean)
	}
}

func TestCalibrationSmallResources(t *testing.T) {
	st := testCorpus(t, 7).Stats()
	// §VI-E: ~75% of CDN resources below 20KB.
	if st.SmallResources < 0.62 || st.SmallResources > 0.88 {
		t.Fatalf("small CDN resources = %.3f, want ~0.75", st.SmallResources)
	}
}

// providerResourceCounts returns, for each page using the provider, how
// many of its resources that provider hosts (Fig. 5's per-provider CCDF
// input).
func providerResourceCounts(c *Corpus, provider string) []int {
	var out []int
	for i := range c.Pages {
		n := 0
		for j := range c.Pages[i].Resources {
			if c.Pages[i].Resources[j].Provider() == provider {
				n++
			}
		}
		if n > 0 {
			out = append(out, n)
		}
	}
	return out
}

func TestCalibrationProviderCentralization(t *testing.T) {
	c := testCorpus(t, 7)
	// Fig. 5: for Cloudflare and Google, ~half the pages using them
	// carry more than 10 of their resources.
	for _, prov := range []string{"Cloudflare", "Google"} {
		counts := providerResourceCounts(c, prov)
		if len(counts) == 0 {
			t.Fatalf("no pages use %s", prov)
		}
		over10 := 0
		for _, n := range counts {
			if n > 10 {
				over10++
			}
		}
		frac := float64(over10) / float64(len(counts))
		if frac < 0.35 {
			t.Fatalf("%s: only %.2f of pages exceed 10 resources, want ~0.5+", prov, frac)
		}
	}
}

func TestDocumentIsFirstAndOriginHosted(t *testing.T) {
	c := testCorpus(t, 3)
	for i := range c.Pages {
		doc := c.Pages[i].Resources[0]
		if doc.Type != Document {
			t.Fatalf("page %d: first resource is %v", i, doc.Type)
		}
		if doc.Provider() != "" || doc.Host() != c.Pages[i].Site {
			t.Fatalf("page %d: document hosted at %q (provider %q)", i, doc.Host(), doc.Provider())
		}
	}
}

func TestHostProviderConsistency(t *testing.T) {
	c := testCorpus(t, 3)
	for i := range c.Pages {
		for j := range c.Pages[i].Resources {
			r := &c.Pages[i].Resources[j]
			if got := c.HostProvider[r.Host()]; got != r.Provider() {
				t.Fatalf("host %q mapped to %q but resource says %q", r.Host(), got, r.Provider())
			}
			if _, ok := c.H3Support[r.Host()]; !ok {
				t.Fatalf("host %q missing H3 support entry", r.Host())
			}
		}
	}
}

func TestSharedHostnamesRecurAcrossPages(t *testing.T) {
	c := testCorpus(t, 3)
	usage := make(map[string]map[int]bool)
	for i := range c.Pages {
		for j := range c.Pages[i].Resources {
			h := c.Pages[i].Resources[j].Host()
			if !strings.Contains(h, "-cdn.sim") {
				continue // only shared hostnames
			}
			if usage[h] == nil {
				usage[h] = make(map[int]bool)
			}
			usage[h][i] = true
		}
	}
	if len(usage) == 0 {
		t.Fatal("no shared hostnames generated")
	}
	max := 0
	for _, pages := range usage {
		if len(pages) > max {
			max = len(pages)
		}
	}
	if max < len(c.Pages)/3 {
		t.Fatalf("most-shared hostname on %d/%d pages; sharing too weak for §VI-D", max, len(c.Pages))
	}
}

func TestH3AdoptionOrdering(t *testing.T) {
	c := testCorpus(t, 11)
	adoption := func(provider string) float64 {
		n, h3 := 0, 0
		for host, prov := range c.HostProvider {
			if prov != provider {
				continue
			}
			n++
			if c.H3Support[host] {
				h3++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(h3) / float64(n)
	}
	g, cf, am := adoption("Google"), adoption("Cloudflare"), adoption("Amazon")
	if !(g > cf && cf > am) {
		t.Fatalf("adoption ordering broken: Google=%.2f Cloudflare=%.2f Amazon=%.2f", g, cf, am)
	}
	if g < 0.85 {
		t.Fatalf("Google adoption %.2f, want near-total (Fig. 2)", g)
	}
}

func TestLognormalClamped(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec
		n := lognormalInt(rng, 100, 1.0, 10, 1000)
		return n >= 10 && n <= 1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResourceTypeStrings(t *testing.T) {
	for _, tc := range []struct {
		t   ResourceType
		s   string
		ext string
	}{
		{Document, "document", "html"},
		{Script, "script", "js"},
		{Stylesheet, "stylesheet", "css"},
		{Image, "image", "jpg"},
		{Font, "font", "woff2"},
		{Other, "other", "bin"},
	} {
		if tc.t.String() != tc.s || tc.t.ext() != tc.ext {
			t.Fatalf("%v: %q/%q", tc.t, tc.t.String(), tc.t.ext())
		}
	}
}

func TestPageHelpers(t *testing.T) {
	var p Page
	for _, prov := range []string{"", "Google", "Google", "Fastly"} {
		var r Resource
		r.provider = mustInternProvider(prov)
		p.Resources = append(p.Resources, r)
	}
	if got := p.CDNResourceCount(); got != 3 {
		t.Fatalf("CDNResourceCount = %d", got)
	}
	provs := p.Providers()
	if len(provs) != 2 {
		t.Fatalf("Providers = %v", provs)
	}
}

func TestProviderSlug(t *testing.T) {
	if providerSlug("QUIC.Cloud") != "quiccloud" {
		t.Fatal("QUIC.Cloud slug")
	}
	if providerSlug("Google") != "google" {
		t.Fatal("Google slug")
	}
}

func TestResourceJSONRoundTrip(t *testing.T) {
	c := testCorpus(t, 2)
	blob, err := json.Marshal(c.Pages[0].Resources)
	if err != nil {
		t.Fatal(err)
	}
	var back []Resource
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(c.Pages[0].Resources) {
		t.Fatalf("round-trip length %d != %d", len(back), len(c.Pages[0].Resources))
	}
	for i := range back {
		a, b := &c.Pages[0].Resources[i], &back[i]
		if a.Host() != b.Host() || a.Path() != b.Path() || a.URL() != b.URL() ||
			a.Size != b.Size || a.Type != b.Type || a.Provider() != b.Provider() || a.H3Eligible != b.H3Eligible {
			t.Fatalf("resource %d changed across JSON round-trip:\n  %+v\n  %+v", i, a, b)
		}
	}
}
