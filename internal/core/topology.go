package core

import (
	"sort"

	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/simnet"
	"h3cdn/internal/webgen"
)

// The content catalog is a slice of resource pointers sorted by
// (host, path), binary-searched per request, rather than a map: the
// corpus already stores every host, path, and size, so the catalog
// needs only 8 bytes per resource — a string-keyed map costs an order
// of magnitude more, and at 100k-page scale it was a dominant live
// allocation. The lookup runs once per simulated request; ~20 string
// comparisons against pre-resolved resource fields allocate nothing
// and are noise next to the simulated exchange they answer.

// Topology is the campaign-wide, shard-independent slice of universe
// construction: everything computable from the immutable corpus and the
// CDN registry alone. A campaign builds it once and shares it read-only
// across every worker goroutine; each shard's Universe then only pays
// for its own randomness (origin delays, path streams) and the servers
// it actually contacts.
//
// All fields are written during NewTopology and never mutated again —
// concurrent readers need no synchronization.
type Topology struct {
	corpus *webgen.Corpus

	// content is every corpus resource, sorted by (host, path).
	content []*webgen.Resource

	// providers snapshots the CDN registry by name; edgeAddr and
	// preloaded are the resolver's provider-level lookups.
	providers map[string]cdn.Provider
	edgeAddr  map[string]simnet.Addr
	preloaded map[string]bool
	// originAddr is each origin-served host's address, "origin." + host,
	// built once so that Endpoint allocates nothing.
	originAddr map[string]simnet.Addr
}

// NewTopology builds the shared topology for a corpus. The corpus must
// not be mutated afterwards.
func NewTopology(corpus *webgen.Corpus) *Topology {
	reg := cdn.Registry()
	nRes := 0
	for i := range corpus.Pages {
		nRes += len(corpus.Pages[i].Resources)
	}
	t := &Topology{
		corpus:    corpus,
		content:   make([]*webgen.Resource, 0, nRes),
		providers: make(map[string]cdn.Provider, len(reg)),
		edgeAddr:  make(map[string]simnet.Addr, len(reg)),
		preloaded: make(map[string]bool, len(reg)),
	}
	t.originAddr = make(map[string]simnet.Addr)
	for host, prov := range corpus.HostProvider {
		if prov == "" {
			t.originAddr[host] = simnet.Addr("origin." + host)
		}
	}
	for i := range corpus.Pages {
		p := &corpus.Pages[i]
		for j := range p.Resources {
			t.content = append(t.content, &p.Resources[j])
		}
	}
	sort.Slice(t.content, func(i, j int) bool {
		a, b := t.content[i], t.content[j]
		if ah, bh := a.Host(), b.Host(); ah != bh {
			return ah < bh
		}
		return a.Path() < b.Path()
	})
	for _, p := range reg {
		t.providers[p.Name] = p
		t.edgeAddr[p.Name] = simnet.Addr("edge." + slug(p.Name))
		t.preloaded[p.Name] = p.H3Preloaded
	}
	return t
}

// Corpus returns the corpus the topology was built from.
func (t *Topology) Corpus() *webgen.Corpus { return t.corpus }

// ContentSize resolves a resource's body size (the cdn.ContentFunc shared
// by every edge and origin server built from this topology).
func (t *Topology) ContentSize(host, path string) (int, bool) {
	i := sort.Search(len(t.content), func(i int) bool {
		r := t.content[i]
		if rh := r.Host(); rh != host {
			return rh >= host
		}
		return r.Path() >= path
	})
	if i < len(t.content) {
		if r := t.content[i]; r.Host() == host && r.Path() == path {
			return r.Size, true
		}
	}
	return 0, false
}

// Endpoint resolves a hostname to its serving endpoint. The answer is
// shard-independent: which simulated server backs the address — and
// whether it exists yet — is the Universe's concern, not the topology's.
func (t *Topology) Endpoint(hostname string) (browser.Endpoint, bool) {
	prov, ok := t.corpus.HostProvider[hostname]
	if !ok {
		return browser.Endpoint{}, false
	}
	if prov == "" {
		return browser.Endpoint{
			Addr:       t.originAddr[hostname],
			SupportsH3: t.corpus.H3Support[hostname],
			H1Only:     t.corpus.H1Only[hostname],
		}, true
	}
	return browser.Endpoint{
		Addr:        t.edgeAddr[prov],
		SupportsH3:  t.corpus.H3Support[hostname],
		H3Preloaded: t.preloaded[prov],
	}, true
}
