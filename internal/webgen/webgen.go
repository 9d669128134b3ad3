// Package webgen generates the synthetic webpage corpus standing in for
// the paper's 325 Alexa-Top landing pages. Only *input* distributions are
// encoded here — resource counts, per-page CDN fraction, provider
// presence and market share, resource sizes, hostname sharing — all
// calibrated to the paper's measured aggregates (Table II, Figs. 3-5).
// Every number the experiments report is then re-measured from simulated
// page loads, not read back from this generator.
package webgen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"h3cdn/internal/cdn"
	"h3cdn/internal/seqrand"
)

// ResourceType categorizes a web resource.
type ResourceType uint8

const (
	Document ResourceType = iota + 1
	Script
	Stylesheet
	Image
	Font
	Other
)

func (t ResourceType) String() string {
	switch t {
	case Document:
		return "document"
	case Script:
		return "script"
	case Stylesheet:
		return "stylesheet"
	case Image:
		return "image"
	case Font:
		return "font"
	default:
		return "other"
	}
}

func (t ResourceType) ext() string {
	switch t {
	case Document:
		return "html"
	case Script:
		return "js"
	case Stylesheet:
		return "css"
	case Image:
		return "jpg"
	case Font:
		return "woff2"
	default:
		return "bin"
	}
}

// Resource is one fetchable object on a page.
//
// The host, path, and URL are three views of one backing string
// ("https://" + host + path): at corpus scale the per-resource strings
// are the dominant live allocation of a whole campaign, and storing
// host and path as separate fields would roughly double the bytes
// (extra string data, allocator rounding, and two more 16-byte headers
// per resource). Host/Path are therefore accessor methods slicing the
// url field. The provider is an index into the interned provider names
// for the same reason (two bytes, not a sixteen-byte string header):
// with the field order below a resource packs into 32 bytes, not 64.
// JSON round-trips still speak {host, path, provider, ...} via the
// custom marshalers below.
type Resource struct {
	url      string // "https://" + host + path
	Size     int
	hostLen  uint16
	provider uint16 // index into providerNames; 0 is the origin
	Type     ResourceType
	// H3Eligible marks resources actually servable over H3: the host
	// must have H3 enabled and the resource's serving path covered by
	// the provider's partial rollout (§VI-C's deployment density).
	H3Eligible bool
}

// Provider returns the CDN provider serving the resource, "" for the
// origin (non-CDN).
func (r *Resource) Provider() string { return (*providerNames.list.Load())[r.provider] }

// providerNames interns provider names, so a resource stores its
// provider as an index and resources still compare equal by value
// across corpora. Names are few (the registry's, plus any a test or a
// loaded corpus brings) and are only ever added: readers load an
// immutable snapshot without locking.
var providerNames struct {
	mu   sync.Mutex
	list atomic.Pointer[[]string]
}

func init() { providerNames.list.Store(&[]string{""}) }

func mustInternProvider(name string) uint16 {
	i, err := internProvider(name)
	if err != nil {
		panic(err)
	}
	return i
}

func internProvider(name string) (uint16, error) {
	if i := slices.Index(*providerNames.list.Load(), name); i >= 0 {
		return uint16(i), nil
	}
	providerNames.mu.Lock()
	defer providerNames.mu.Unlock()
	list := *providerNames.list.Load()
	if i := slices.Index(list, name); i >= 0 {
		return uint16(i), nil
	}
	if len(list) > math.MaxUint16 {
		return 0, fmt.Errorf("webgen: more than %d distinct providers", math.MaxUint16)
	}
	list = append(list[:len(list):len(list)], name)
	providerNames.list.Store(&list)
	return uint16(len(list) - 1), nil
}

// SetLocation records the resource's host and path (stored packed; see
// the type comment).
func (r *Resource) SetLocation(host, path string) {
	r.url = "https://" + host + path
	r.hostLen = uint16(len(host))
}

// Host returns the resource's hostname.
func (r *Resource) Host() string {
	return r.url[len("https://") : len("https://")+int(r.hostLen)]
}

// Path returns the resource's URL path.
func (r *Resource) Path() string {
	return r.url[len("https://")+int(r.hostLen):]
}

// URL returns the resource's synthetic URL. Precomputed: visits
// re-fetch the same corpus objects repeatedly, and the corpus is
// shared read-only across campaign shards, so nothing may memoize
// lazily.
func (r *Resource) URL() string { return r.url }

// resourceJSON is the wire form of Resource; the packed url/hostLen
// representation stays an implementation detail.
type resourceJSON struct {
	Host       string       `json:"host"`
	Path       string       `json:"path"`
	Size       int          `json:"size"`
	Type       ResourceType `json:"type"`
	Provider   string       `json:"provider,omitempty"`
	H3Eligible bool         `json:"h3Eligible,omitempty"`
}

// MarshalJSON emits the {host, path, ...} wire form.
func (r Resource) MarshalJSON() ([]byte, error) {
	return json.Marshal(resourceJSON{
		Host:       r.Host(),
		Path:       r.Path(),
		Size:       r.Size,
		Type:       r.Type,
		Provider:   r.Provider(),
		H3Eligible: r.H3Eligible,
	})
}

// UnmarshalJSON parses the {host, path, ...} wire form.
func (r *Resource) UnmarshalJSON(b []byte) error {
	var w resourceJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	r.Size = w.Size
	r.Type = w.Type
	provider, err := internProvider(w.Provider)
	if err != nil {
		return err
	}
	r.provider = provider
	r.H3Eligible = w.H3Eligible
	r.SetLocation(w.Host, w.Path)
	return nil
}

// Page is one website's landing page.
type Page struct {
	Site      string     `json:"site"`
	Rank      int        `json:"rank"`
	Resources []Resource `json:"resources"` // Resources[0] is the document
}

// Providers returns the distinct CDN providers used on the page.
func (p *Page) Providers() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range p.Resources {
		prov := p.Resources[i].Provider()
		if prov != "" && !seen[prov] {
			seen[prov] = true
			out = append(out, prov)
		}
	}
	return out
}

// CDNResourceCount returns the number of CDN-hosted resources.
func (p *Page) CDNResourceCount() int {
	n := 0
	for i := range p.Resources {
		if p.Resources[i].Provider() != "" {
			n++
		}
	}
	return n
}

// Corpus is the generated website population.
type Corpus struct {
	Pages []Page `json:"pages"`
	// H3Support records, per hostname, whether that host had H3
	// enabled at "measurement time" (drawn once per hostname from the
	// provider's adoption rate, so shared hostnames are consistent
	// across pages).
	H3Support map[string]bool `json:"h3Support"`
	// HostProvider maps every hostname to its provider ("" = origin).
	HostProvider map[string]string `json:"hostProvider"`
	// H1Only marks origin hosts stuck on HTTP/1.x (Table II's "Others"
	// row: 18.7% of non-CDN requests).
	H1Only map[string]bool `json:"h1Only"`
}

// Config tunes corpus generation. Zero values select paper-calibrated
// defaults.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// NumPages is the website count. Default 325.
	NumPages int
	// MeanResources is the mean resource count per page. Default 111
	// (36,057 requests / 325 pages).
	MeanResources float64
	// CDNFracMean/Std shape the per-page CDN share (Fig. 3: 75% of
	// pages above 50%). Defaults 0.66 / 0.19.
	CDNFracMean float64
	CDNFracStd  float64
	// OriginH3Adoption is the chance a site's own server enables H3.
	// Default 0.30 (Table II non-CDN split; discovery keeps the first
	// requests on H2, netting out near the paper 20.6% measured share).
	OriginH3Adoption float64
	// OriginH1OnlyFraction is the chance a site's own server speaks
	// only HTTP/1.x. Default 0.19 (Table II: "Others" are 18.7% of
	// non-CDN requests and ~0% of CDN requests).
	OriginH1OnlyFraction float64
	// SharedHostFraction is the probability a CDN resource sits on one
	// of its provider's globally shared hostnames. Default 0.5.
	SharedHostFraction float64
	// OriginH3PathFraction is the per-resource H3 coverage on
	// H3-enabled origins. Default 0.85.
	OriginH3PathFraction float64
	// Providers overrides the registry (tests/ablations).
	Providers []cdn.Provider
}

func (c Config) withDefaults() Config {
	if c.NumPages == 0 {
		c.NumPages = 325
	}
	if c.MeanResources == 0 {
		c.MeanResources = 111
	}
	if c.CDNFracMean == 0 {
		c.CDNFracMean = 0.66
	}
	if c.CDNFracStd == 0 {
		c.CDNFracStd = 0.19
	}
	if c.OriginH3Adoption == 0 {
		c.OriginH3Adoption = 0.30
	}
	if c.OriginH1OnlyFraction == 0 {
		c.OriginH1OnlyFraction = 0.19
	}
	if c.SharedHostFraction == 0 {
		c.SharedHostFraction = 0.5
	}
	if c.OriginH3PathFraction == 0 {
		c.OriginH3PathFraction = 0.85
	}
	if c.Providers == nil {
		c.Providers = cdn.Registry()
	}
	return c
}

// Generate builds the corpus deterministically from cfg.Seed.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	src := seqrand.New(cfg.Seed).Sub("webgen")
	corpus := &Corpus{
		Pages:        make([]Page, 0, cfg.NumPages),
		H3Support:    make(map[string]bool),
		HostProvider: make(map[string]string),
		H1Only:       make(map[string]bool),
	}

	h3Rng := src.Stream("h3support")
	h1Rng := src.Stream("h1only")
	ensureHost := func(host, provider string, adoption float64) bool {
		if _, ok := corpus.HostProvider[host]; ok {
			return corpus.H3Support[host]
		}
		corpus.HostProvider[host] = provider
		if provider == "" && h1Rng.Float64() < cfg.OriginH1OnlyFraction {
			// HTTP/1.x-only origin: H3 impossible too.
			corpus.H1Only[host] = true
			corpus.H3Support[host] = false
			return false
		}
		ok := h3Rng.Float64() < adoption
		corpus.H3Support[host] = ok
		return ok
	}

	providers := make(map[string]uint16, len(cfg.Providers))
	for _, p := range cfg.Providers {
		providers[p.Name] = mustInternProvider(p.Name)
	}

	var urlBuf []byte
	for i := 0; i < cfg.NumPages; i++ {
		rng := src.Stream(seqrand.Label("page", i))
		page := generatePage(cfg, i, rng, ensureHost, providers)
		// Re-pack the page's URLs into one backing string: one
		// allocation per page instead of one per resource, and no
		// per-string allocator rounding.
		urlBuf = urlBuf[:0]
		for j := range page.Resources {
			urlBuf = append(urlBuf, page.Resources[j].url...)
		}
		urls := string(urlBuf)
		off := 0
		for j := range page.Resources {
			r := &page.Resources[j]
			n := len(r.url)
			r.url = urls[off : off+n]
			off += n
		}
		corpus.Pages = append(corpus.Pages, page)
	}
	return corpus
}

func generatePage(cfg Config, rank int, rng *rand.Rand, ensureHost func(string, string, float64) bool, providers map[string]uint16) Page {
	site := fmt.Sprintf("site%03d.sim", rank)
	originH3 := ensureHost(site, "", cfg.OriginH3Adoption)

	total := lognormalInt(rng, cfg.MeanResources*0.85, 0.55, 15, 400)
	cdnFrac := clamp(rng.NormFloat64()*cfg.CDNFracStd+cfg.CDNFracMean, 0.05, 0.98)
	nCDN := int(math.Round(float64(total) * cdnFrac))
	if nCDN > total-1 {
		nCDN = total - 1 // the document itself is always origin-hosted
	}
	nOrigin := total - nCDN // includes the document

	page := Page{Site: site, Rank: rank, Resources: make([]Resource, 0, total)}

	// Document first.
	doc := Resource{
		Size:       30_000 + rng.Intn(60_000),
		Type:       Document,
		H3Eligible: originH3 && rng.Float64() < cfg.OriginH3PathFraction,
	}
	doc.SetLocation(site, "/")
	page.Resources = append(page.Resources, doc)

	// Origin-hosted subresources.
	for j := 1; j < nOrigin; j++ {
		typ := drawType(rng)
		r := Resource{
			Size:       drawSize(rng, typ),
			Type:       typ,
			H3Eligible: originH3 && rng.Float64() < cfg.OriginH3PathFraction,
		}
		r.SetLocation(site, "/static/r"+strconv.Itoa(j)+"."+typ.ext())
		page.Resources = append(page.Resources, r)
	}

	// Which providers appear on this page (Fig. 4a presence rates).
	present := make([]cdn.Provider, 0, len(cfg.Providers))
	for _, p := range cfg.Providers {
		if rng.Float64() < p.PagePresence {
			present = append(present, p)
		}
	}
	if len(present) == 0 {
		present = append(present, cfg.Providers[0])
	}
	shareSum := 0.0
	for _, p := range present {
		shareSum += p.MarketShare
	}

	// CDN resources, assigned to present providers by market share.
	for j := 0; j < nCDN; j++ {
		prov := pickProvider(rng, present, shareSum)
		typ := drawType(rng)
		host := cdnHostname(rng, cfg, prov, site)
		hostH3 := ensureHost(host, prov.Name, prov.H3Adoption)
		r := Resource{
			Size:       drawSize(rng, typ),
			Type:       typ,
			provider:   providers[prov.Name],
			H3Eligible: hostH3 && rng.Float64() < prov.H3PathFraction,
		}
		r.SetLocation(host, "/assets/"+site+"/r"+strconv.Itoa(j)+"."+typ.ext())
		page.Resources = append(page.Resources, r)
	}
	return page
}

func pickProvider(rng *rand.Rand, present []cdn.Provider, shareSum float64) cdn.Provider {
	x := rng.Float64() * shareSum
	for _, p := range present {
		x -= p.MarketShare
		if x <= 0 {
			return p
		}
	}
	return present[len(present)-1]
}

// cdnHostname picks either a globally shared hostname of the provider
// (fonts/library-CDN analogue, reused across sites — the §VI-D resumption
// vehicle) or a site-specific distribution hostname.
func cdnHostname(rng *rand.Rand, cfg Config, p cdn.Provider, site string) string {
	slug := providerSlug(p.Name)
	if rng.Float64() < cfg.SharedHostFraction && p.SharedHosts > 0 {
		k := rng.Intn(p.SharedHosts)
		return "s" + strconv.Itoa(k) + "." + slug + "-cdn.sim"
	}
	return site + "." + slug + "-edge.sim"
}

func providerSlug(name string) string {
	switch name {
	case "QUIC.Cloud":
		return "quiccloud"
	default:
		out := make([]rune, 0, len(name))
		for _, r := range name {
			if r >= 'A' && r <= 'Z' {
				r += 'a' - 'A'
			}
			out = append(out, r)
		}
		return string(out)
	}
}

func drawType(rng *rand.Rand) ResourceType {
	x := rng.Float64()
	switch {
	case x < 0.45:
		return Image
	case x < 0.75:
		return Script
	case x < 0.85:
		return Stylesheet
	case x < 0.90:
		return Font
	default:
		return Other
	}
}

// drawSize samples a per-type lognormal calibrated so ~75% of CDN
// resources fall under 20KB (§VI-E, citing [39]).
func drawSize(rng *rand.Rand, t ResourceType) int {
	var median float64
	switch t {
	case Document:
		median = 50_000
	case Script:
		median = 9_000
	case Stylesheet:
		median = 3_500
	case Image:
		median = 13_000
	case Font:
		median = 18_000
	default:
		median = 6_000
	}
	return lognormalInt(rng, median, 0.9, 300, 2_000_000)
}

// lognormalInt samples round(exp(N(ln(median), sigma))) clamped to
// [lo, hi].
func lognormalInt(rng *rand.Rand, median, sigma float64, lo, hi int) int {
	v := math.Exp(rng.NormFloat64()*sigma + math.Log(median))
	n := int(math.Round(v))
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
