package cdn

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"h3cdn/internal/httpsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

func TestRegistryCalibration(t *testing.T) {
	reg := Registry()
	shareSum := 0.0
	for _, p := range reg {
		if p.MarketShare <= 0 || p.MarketShare > 1 {
			t.Fatalf("%s: share %v out of range", p.Name, p.MarketShare)
		}
		if p.H3Adoption < 0 || p.H3Adoption > 1 {
			t.Fatalf("%s: adoption %v out of range", p.Name, p.H3Adoption)
		}
		if p.ReleaseYear < 2019 || p.ReleaseYear > 2023 {
			t.Fatalf("%s: release year %d", p.Name, p.ReleaseYear)
		}
		shareSum += p.MarketShare
	}
	if math.Abs(shareSum-1.0) > 1e-9 {
		t.Fatalf("market shares sum to %v, want 1.0", shareSum)
	}
	// Raw Σ share·adoption sits below the Table II target (0.385)
	// because measured shares are renormalized per page by provider
	// presence, which boosts the high-presence (high-adoption)
	// providers; the measured-level check lives in internal/core.
	if got := expectedH3CDNShare(); got < 0.26 || got > 0.42 {
		t.Fatalf("expected H3 CDN share = %.3f, want 0.26..0.42", got)
	}
}

// expectedH3CDNShare returns Σ share·adoption — the fraction of CDN
// requests expected over H3 given the registry calibration.
func expectedH3CDNShare() float64 {
	total := 0.0
	for _, p := range Registry() {
		total += p.MarketShare * p.H3Adoption
	}
	return total
}

func TestRegistryFig2Shape(t *testing.T) {
	// Google and Cloudflare must dominate H3-enabled CDN requests
	// (each roughly half; exact splits are asserted at the measured
	// level in internal/core).
	total := expectedH3CDNShare()
	g, _ := ProviderByName("Google")
	cf, _ := ProviderByName("Cloudflare")
	gShare := g.MarketShare * g.H3Adoption / total
	cfShare := cf.MarketShare * cf.H3Adoption / total
	if gShare < 0.30 || gShare > 0.60 {
		t.Fatalf("Google share of H3 requests = %.3f, want dominant (~0.5)", gShare)
	}
	if cfShare < 0.30 || cfShare > 0.60 {
		t.Fatalf("Cloudflare share of H3 requests = %.3f, want dominant (~0.45)", cfShare)
	}
	rest := 1 - gShare - cfShare
	if rest > 0.25 {
		t.Fatalf("other providers hold %.3f of H3 requests, want a small tail", rest)
	}
}

func TestProviderByName(t *testing.T) {
	if _, ok := ProviderByName("Google"); !ok {
		t.Fatal("Google missing")
	}
	if _, ok := ProviderByName("NotACDN"); ok {
		t.Fatal("bogus provider found")
	}
	if len(GiantProviders()) != 4 {
		t.Fatal("provider sets wrong size")
	}
}

func TestLRUCache(t *testing.T) {
	c := NewLRUCache[string](2)
	if c.Contains("a") {
		t.Fatal("empty cache hit")
	}
	c.Add("a")
	c.Add("b")
	if !c.Contains("a") || !c.Contains("b") {
		t.Fatal("miss on fresh entries")
	}
	c.Add("c") // evicts LRU: "a" was touched before "b"... order: a,b touched; a older
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if !c.Contains("c") {
		t.Fatal("new entry missing")
	}
	if c.Contains("a") {
		t.Fatal("LRU entry not evicted")
	}
}

func TestLRUCacheRecencyUpdate(t *testing.T) {
	c := NewLRUCache[string](2)
	c.Add("a")
	c.Add("b")
	c.Contains("a") // refresh a
	c.Add("c")      // should evict b
	if c.Contains("b") || !c.Contains("a") {
		t.Fatal("recency not respected")
	}
}

// counterEdge is an edge for driving lookup directly: no network, a
// scheduler that never runs, a cache of capacity entries.
func counterEdge(capacity int) *Edge {
	return NewEdge(EdgeConfig{Sched: &simnet.Scheduler{}, CacheCapacity: capacity})
}

// intKey is the edge cache key of test key k.
func intKey(k int) resourceKey { return resourceKey{"cdn.site.sim", strconv.Itoa(k)} }

// TestLRUCacheCountersUnderChurn drives an edge's cache with a
// deterministic mixed workload at 4x its capacity and checks the edge's
// hit/miss counters against an independent reference model of LRU
// recency. Eviction churn is constant (every miss-then-Add evicts),
// which is exactly where counter bookkeeping could drift from list
// surgery.
func TestLRUCacheCountersUnderChurn(t *testing.T) {
	const capacity, universe, rounds = 8, 32, 2048
	e := counterEdge(capacity)
	c := e.Cache()

	// Reference model: slice ordered most→least recent.
	var ref []int
	refContains := func(k int) bool {
		for i, v := range ref {
			if v == k {
				ref = append(ref[:i], ref[i+1:]...)
				ref = append([]int{k}, ref...)
				return true
			}
		}
		return false
	}
	refAdd := func(k int) {
		if refContains(k) {
			return
		}
		if len(ref) >= capacity {
			ref = ref[:capacity-1]
		}
		ref = append([]int{k}, ref...)
	}

	var wantHits, wantMisses int64
	// An LCG keeps the access pattern deterministic but aperiodic, so
	// the run mixes re-references (hits) with cold keys (miss + evict).
	state := uint64(42)
	for i := 0; i < rounds; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		key := int(state>>33) % universe
		if refContains(key) {
			wantHits++
			if !e.lookup(intKey(key)) {
				t.Fatalf("round %d: key %d should hit", i, key)
			}
		} else {
			wantMisses++
			if e.lookup(intKey(key)) {
				t.Fatalf("round %d: key %d should miss", i, key)
			}
			refAdd(key)
			c.Add(intKey(key))
		}
		if c.Len() > capacity {
			t.Fatalf("round %d: len %d exceeds capacity %d", i, c.Len(), capacity)
		}
	}

	if wantHits == 0 || wantMisses <= int64(capacity) {
		t.Fatalf("workload degenerate: %d hits, %d misses", wantHits, wantMisses)
	}
	if e.CacheHits() != wantHits || e.CacheMisses() != wantMisses || e.CacheExpired() != 0 {
		t.Fatalf("counters (%d hits, %d misses, %d expired), reference model (%d, %d, 0)",
			e.CacheHits(), e.CacheMisses(), e.CacheExpired(), wantHits, wantMisses)
	}
}

// TestLRUCacheSequentialScanChurn is the classic LRU worst case: cycling
// over capacity+1 keys evicts each next key just before it is needed, so
// after warm-up every probe must miss and the edge's counters must say so.
func TestLRUCacheSequentialScanChurn(t *testing.T) {
	const capacity = 4
	e := counterEdge(capacity)
	for k := 0; k <= capacity; k++ { // warm-up: all misses, last Add evicts key 0
		e.lookup(intKey(k))
		e.Cache().Add(intKey(k))
	}
	base := e.CacheMisses()
	for pass := 0; pass < 3; pass++ {
		for k := 0; k <= capacity; k++ {
			if e.lookup(intKey(k)) {
				t.Fatalf("pass %d key %d: hit; sequential scan over capacity+1 keys must always miss", pass, k)
			}
			e.Cache().Add(intKey(k))
		}
	}
	if e.CacheHits() != 0 {
		t.Fatalf("hits = %d, want 0", e.CacheHits())
	}
	if got := e.CacheMisses() - base; got != 3*(capacity+1) {
		t.Fatalf("scan misses = %d, want %d", got, 3*(capacity+1))
	}
}

func TestLRUCacheTTL(t *testing.T) {
	c := NewLRUCache[string](4)
	c.AddAt("a", 100)
	if hit, _ := c.ContainsAt("a", 50); !hit {
		t.Fatal("entry expired before its time")
	}
	if c.Len() != 1 {
		t.Fatal("a stale entry left before it was touched")
	}
	if hit, expired := c.ContainsAt("a", 150); hit || !expired {
		t.Fatalf("entry past its expiry: hit=%v expired=%v, want a lapse", hit, expired)
	}
	if hit, expired := c.ContainsAt("a", 150); hit || expired || c.Len() != 0 {
		t.Fatalf("lapsed entry still resident: hit=%v expired=%v len=%d", hit, expired, c.Len())
	}
	// Re-adding a resident key re-stamps its expiry.
	c.AddAt("b", 100)
	c.AddAt("b", 200)
	if hit, _ := c.ContainsAt("b", 150); !hit {
		t.Fatal("re-stamped expiry not honored")
	}
	// Zero expiry never lapses.
	c.Add("z")
	if hit, _ := c.ContainsAt("z", time.Hour); !hit {
		t.Fatal("zero-expiry entry lapsed")
	}
}

// TestEdgeCountersStayWithEdge hands one edge's cache to the next, the
// way a population shard carries it across epochs: the contents carry,
// the counters do not, and a lapse counts as a miss and as expired.
func TestEdgeCountersStayWithEdge(t *testing.T) {
	first := counterEdge(4)
	first.lookup(intKey(1))
	first.Cache().AddAt(intKey(1), 10)
	first.Cache().Add(intKey(2))
	first.lookup(intKey(2))
	if first.CacheHits() != 1 || first.CacheMisses() != 1 {
		t.Fatalf("first edge counted %d hits, %d misses", first.CacheHits(), first.CacheMisses())
	}
	next := NewEdge(EdgeConfig{Sched: &simnet.Scheduler{}, NowOffset: 20, Cache: first.Cache()})
	if next.Cache() != first.Cache() || next.CacheHits() != 0 || next.CacheMisses() != 0 {
		t.Fatal("the next edge did not take the cache alone")
	}
	if next.lookup(intKey(1)) || !next.lookup(intKey(2)) {
		t.Fatal("carried contents or expiries wrong")
	}
	if next.CacheHits() != 1 || next.CacheMisses() != 1 || next.CacheExpired() != 1 {
		t.Fatalf("next edge counted %d hits, %d misses, %d expired, want 1/1/1",
			next.CacheHits(), next.CacheMisses(), next.CacheExpired())
	}
}

func TestCacheDumpRestore(t *testing.T) {
	a, b, c := intKey(1), intKey(2), intKey(3)
	src := NewCache(4)
	src.AddAt(a, 100)
	src.AddAt(b, 0)
	src.AddAt(c, 300)
	src.Contains(a) // recency now (least→most): b, c, a
	dump := src.Dump()
	want := []CacheEntry{{b.host, b.path, 0}, {c.host, c.path, 300}, {a.host, a.path, 100}}
	if len(dump) != len(want) {
		t.Fatalf("dump len %d, want %d", len(dump), len(want))
	}
	for i := range want {
		if dump[i] != want[i] {
			t.Fatalf("dump[%d] = %+v, want %+v", i, dump[i], want[i])
		}
	}
	r := NewCache(4)
	r.Restore(dump)
	// Contents, expiries, and recency order must all round-trip: the
	// restored cache evicts the same LRU victim.
	r.Add(intKey(4))
	r.Add(intKey(5)) // capacity 4: evicts b (least recent after restore)
	if r.Contains(b) {
		t.Fatal("restored recency order wrong")
	}
	if hit, expired := r.ContainsAt(c, 400); hit || !expired {
		t.Fatal("restored expiry of c wrong")
	}
	if hit, _ := r.ContainsAt(a, 50); !hit {
		t.Fatal("restored expiry of a wrong")
	}
}

// cacheOp is one call of a round-trip stream: an AddAt with a TTL, an
// Add (no expiry), or a ContainsAt at the stream's advancing clock.
type cacheOp struct {
	kind    byte // 'a' AddAt, 'A' Add, 'c' ContainsAt
	key     resourceKey
	now     time.Duration
	expires time.Duration
}

// apply runs op on c and returns the lookup outcome (false, false for
// the adds).
func (op cacheOp) apply(c *Cache) (hit, expired bool) {
	switch op.kind {
	case 'a':
		c.AddAt(op.key, op.expires)
	case 'A':
		c.Add(op.key)
	default:
		return c.ContainsAt(op.key, op.now)
	}
	return false, false
}

// cacheStream draws n calls over 4x capacity keys, so that most adds
// evict, with a clock that advances between calls and TTLs short
// enough that entries lapse while resident.
func cacheStream(rng *rand.Rand, capacity, n int) []cacheOp {
	ops := make([]cacheOp, n)
	var now time.Duration
	for i := range ops {
		now += time.Duration(rng.Intn(3))
		op := cacheOp{key: intKey(rng.Intn(4 * capacity)), now: now}
		switch r := rng.Intn(10); {
		case r < 4:
			op.kind, op.expires = 'a', now+time.Duration(1+rng.Intn(40))
		case r < 5:
			op.kind = 'A'
		default:
			op.kind = 'c'
		}
		ops[i] = op
	}
	return ops
}

// TestCacheDumpRestoreRoundTrip is what a killed-and-resumed population
// shard rests on: a cache dumped at any point of a seeded call stream and
// restored into a fresh cache answers the rest of the stream exactly as
// the original does (every hit and every lapse) and ends with the same
// dump.
func TestCacheDumpRestoreRoundTrip(t *testing.T) {
	const capacity, calls, trials = 16, 600, 200
	rng := rand.New(rand.NewSource(48))
	var hits, lapses int
	for trial := 0; trial < trials; trial++ {
		ops := cacheStream(rng, capacity, calls)
		cut := rng.Intn(calls)
		orig := NewCache(capacity)
		for _, op := range ops[:cut] {
			op.apply(orig)
		}
		restored := NewCache(capacity)
		restored.Restore(orig.Dump())
		for i, op := range ops[cut:] {
			hit, expired := op.apply(orig)
			rhit, rexpired := op.apply(restored)
			if hit != rhit || expired != rexpired {
				t.Fatalf("trial %d, cut %d, call %d %c %v at %v: original hit=%v expired=%v, restored hit=%v expired=%v",
					trial, cut, cut+i, op.kind, op.key, op.now, hit, expired, rhit, rexpired)
			}
			if hit {
				hits++
			}
			if expired {
				lapses++
			}
		}
		if !slices.Equal(orig.Dump(), restored.Dump()) {
			t.Fatalf("trial %d, cut %d: final dumps differ", trial, cut)
		}
	}
	if hits < trials || lapses < trials {
		t.Fatalf("stream degenerate: %d hits, %d lapses after the cuts", hits, lapses)
	}
}

func TestLRUCapacityFloor(t *testing.T) {
	c := NewLRUCache[string](0)
	c.Add("x")
	if c.Len() != 1 {
		t.Fatal("capacity floor broken")
	}
}

// edgeWorld wires a client and one edge for handler tests, both on the
// returned Pools, as a universe's endpoints are. The edge has no Rng, so
// its waits carry no jitter.
func edgeWorld(t *testing.T, provider string) (*simnet.Scheduler, *simnet.Host, *Edge, *httpsim.Pools) {
	t.Helper()
	sched := &simnet.Scheduler{MaxEvents: 5_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(1))
	client := n.AddHost("client")
	server := n.AddHost("edge")
	prov, ok := ProviderByName(provider)
	if !ok {
		t.Fatalf("unknown provider %s", provider)
	}
	edge := NewEdge(EdgeConfig{
		Provider: prov,
		Sched:    sched,
		Content: func(host, path string) (int, bool) {
			n, err := strconv.Atoi(path[1:])
			if err != nil {
				return 0, false
			}
			return n, true
		},
	})
	pools := &httpsim.Pools{}
	if _, err := httpsim.StartServer(server, httpsim.ServerConfig{
		Handler:  edge.Handler(),
		EnableH3: true,
		Pools:    pools,
	}); err != nil {
		t.Fatal(err)
	}
	return sched, client, edge, pools
}

func TestEdgeCacheMissThenHit(t *testing.T) {
	sched, client, edge, pools := edgeWorld(t, "Cloudflare")

	var firstWaitDone, secondWaitDone time.Duration
	var firstHeaders, secondHeaders map[string]string
	conn := httpsim.DialH2(client, "edge", httpsim.TCPPort, "cdn.site.sim", httpsim.DialConfig{Pools: pools})
	conn.Do(&httpsim.Request{Host: "cdn.site.sim", Path: "/5000"}, httpsim.RequestEvents{
		OnHeaders: func(m httpsim.ResponseMeta) {
			firstWaitDone = sched.Now()
			firstHeaders = m.Header
		},
		OnComplete: func() {
			// Second request: should be a cache hit, much faster.
			conn.Do(&httpsim.Request{Host: "cdn.site.sim", Path: "/5000"}, httpsim.RequestEvents{
				OnHeaders: func(m httpsim.ResponseMeta) {
					secondWaitDone = sched.Now()
					secondHeaders = m.Header
				},
			})
		},
	})
	start := sched.Now()
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if firstHeaders["x-cache"] != "MISS" || secondHeaders["x-cache"] != "HIT" {
		t.Fatalf("x-cache: first=%q second=%q", firstHeaders["x-cache"], secondHeaders["x-cache"])
	}
	if firstHeaders["server"] != "cloudflare" {
		t.Fatalf("server header %q", firstHeaders["server"])
	}
	first := firstWaitDone - start
	second := secondWaitDone - firstWaitDone
	if second >= first {
		t.Fatalf("cache hit (%v) not faster than miss (%v)", second, first)
	}
	if edge.CacheHits() != 1 || edge.CacheMisses() != 1 {
		t.Fatalf("%d hits, %d misses, want 1/1", edge.CacheHits(), edge.CacheMisses())
	}
}

func TestEdgeH3WaitOverhead(t *testing.T) {
	waitFor := func(proto httpsim.Protocol) time.Duration {
		sched, client, _, pools := edgeWorld(t, "Google")
		var conn httpsim.ClientConn
		if proto == httpsim.H3 {
			conn = httpsim.DialH3(client, "edge", httpsim.QUICPort, "g.sim", httpsim.H3DialConfig{Pools: pools})
		} else {
			conn = httpsim.DialH2(client, "edge", httpsim.TCPPort, "g.sim", httpsim.DialConfig{Pools: pools})
		}
		var sent, fb time.Duration
		conn.Do(&httpsim.Request{Host: "g.sim", Path: "/100"}, httpsim.RequestEvents{
			OnSent:    func() { sent = sched.Now() },
			OnHeaders: func(httpsim.ResponseMeta) { fb = sched.Now() },
		})
		if _, err := sched.Run(); err != nil {
			t.Fatal(err)
		}
		return fb - sent
	}
	h2Wait := waitFor(httpsim.H2)
	h3Wait := waitFor(httpsim.H3)
	// Same path RTT; H3 carries the extra server compute (paper §VI-B:
	// median wait reduction below zero).
	if h3Wait != h2Wait+8*time.Millisecond {
		t.Fatalf("H3 wait %v vs H2 wait %v, want +8ms", h3Wait, h2Wait)
	}
}

// TestEdgeTTLSingleFlight drives two concurrent misses for the same
// resource through a TTL-mode edge: the second must join the first's
// origin fetch (one stampede, both MISS), a later request must hit, and
// a request past the TTL must miss again with the expiry counted.
func TestEdgeTTLSingleFlight(t *testing.T) {
	sched := &simnet.Scheduler{MaxEvents: 5_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(1))
	client := n.AddHost("client")
	server := n.AddHost("edge")
	prov, _ := ProviderByName("Cloudflare")
	edge := NewEdge(EdgeConfig{
		Provider: prov,
		Sched:    sched,
		Content: func(host, path string) (int, bool) {
			return 4000, true
		},
		TTL: 2 * time.Second, // no Rng: no jitter
	})
	pools := &httpsim.Pools{}
	if _, err := httpsim.StartServer(server, httpsim.ServerConfig{Handler: edge.Handler(), Pools: pools}); err != nil {
		t.Fatal(err)
	}
	req := &httpsim.Request{Host: "cdn.site.sim", Path: "/x"}
	headersOf := make(map[string]string, 4)
	timeOf := make(map[string]time.Duration, 4)
	do := func(label string) {
		conn := httpsim.DialH2(client, "edge", httpsim.TCPPort, "cdn.site.sim", httpsim.DialConfig{Pools: pools})
		conn.Do(req, httpsim.RequestEvents{
			OnHeaders: func(m httpsim.ResponseMeta) {
				headersOf[label] = m.Header["x-cache"]
				timeOf[label] = sched.Now()
			},
		})
	}
	do("leader")                                        // both dial at t=0: identical handshakes, so their
	do("waiter")                                        // requests reach the edge at the same virtual instant
	sched.After(1*time.Second, func() { do("warm") })   // inside TTL
	sched.After(10*time.Second, func() { do("stale") }) // past TTL
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if headersOf["leader"] != "MISS" || headersOf["waiter"] != "MISS" {
		t.Fatalf("concurrent misses: leader=%q waiter=%q, want MISS/MISS",
			headersOf["leader"], headersOf["waiter"])
	}
	if headersOf["warm"] != "HIT" {
		t.Fatalf("in-TTL request = %q, want HIT", headersOf["warm"])
	}
	if headersOf["stale"] != "MISS" {
		t.Fatalf("post-TTL request = %q, want MISS", headersOf["stale"])
	}
	// The waiter answers edgeHitWait after the leader's fill lands, not
	// a full edgeMissPenalty later: it joined the flight instead of
	// fetching.
	if got := timeOf["waiter"] - timeOf["leader"]; got != edgeHitWait {
		t.Fatalf("waiter trailed leader by %v, want edgeHitWait (%v)", got, edgeHitWait)
	}
	if edge.Stampedes() != 1 {
		t.Fatalf("stampedes = %d, want 1", edge.Stampedes())
	}
	if edge.CacheHits() != 1 || edge.CacheMisses() != 3 || edge.CacheExpired() != 1 {
		t.Fatalf("cache counters hits=%d misses=%d expired=%d, want 1/3/1",
			edge.CacheHits(), edge.CacheMisses(), edge.CacheExpired())
	}
}

func TestEdge404(t *testing.T) {
	sched, client, _, pools := edgeWorld(t, "Fastly")
	conn := httpsim.DialH2(client, "edge", httpsim.TCPPort, "f.sim", httpsim.DialConfig{Pools: pools})
	var status int
	conn.Do(&httpsim.Request{Host: "f.sim", Path: "/nope"}, httpsim.RequestEvents{
		OnHeaders: func(m httpsim.ResponseMeta) { status = m.Status },
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if status != 404 {
		t.Fatalf("status = %d, want 404", status)
	}
}

func TestOriginHandlerHeaders(t *testing.T) {
	sched := &simnet.Scheduler{MaxEvents: 1_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(1))
	client := n.AddHost("client")
	server := n.AddHost("origin")
	h := NewOriginHandler(OriginConfig{
		Sched:   sched,
		Content: func(host, path string) (int, bool) { return 1234, true },
	})
	pools := &httpsim.Pools{}
	if _, err := httpsim.StartServer(server, httpsim.ServerConfig{Handler: h, Pools: pools}); err != nil {
		t.Fatal(err)
	}
	conn := httpsim.DialH2(client, "origin", httpsim.TCPPort, "site.sim", httpsim.DialConfig{Pools: pools})
	var meta httpsim.ResponseMeta
	conn.Do(&httpsim.Request{Host: "site.sim", Path: "/"}, httpsim.RequestEvents{
		OnHeaders: func(m httpsim.ResponseMeta) { meta = m },
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if meta.Status != 200 || meta.BodySize != 1234 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.Header["x-cache"] != "" || meta.Header["server"] != "nginx/1.22" {
		t.Fatalf("origin headers look like a CDN: %v", meta.Header)
	}
}

// TestStampedeWaiterAfterReuse: a request that joined an origin fetch
// (TTL mode's single flight) is aborted with its connection, whose
// server record a new connection then takes, with a request of its own
// waiting. When the fetch lands, the aborted waiter's responder must
// write nothing — above all not into the new occupant's stream — and
// every live request gets exactly its own response.
func TestStampedeWaiterAfterReuse(t *testing.T) {
	sched := &simnet.Scheduler{MaxEvents: 5_000_000}
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: time.Millisecond}
	}, seqrand.New(1))
	client, server := n.AddHost("client"), n.AddHost("edge")
	prov, _ := ProviderByName("Cloudflare")
	edge := NewEdge(EdgeConfig{
		Provider: prov,
		Sched:    sched,
		Content: func(host, path string) (int, bool) {
			size, err := strconv.Atoi(path[1:])
			return size, err == nil
		},
		TTL: time.Minute, // no Rng: no jitter
	})
	// Each connection dials its own server name; ctxAt notes the
	// context of its request, which lives in its server record.
	ctxAt := make(map[string]*httpsim.ServerContext)
	h := edge.Handler()
	handler := func(ctx *httpsim.ServerContext, respond func(httpsim.Response)) {
		ctxAt[ctx.ServerName] = ctx
		h(ctx, respond)
	}
	if _, err := httpsim.StartServer(server, httpsim.ServerConfig{Handler: handler, Pools: &httpsim.Pools{}}); err != nil {
		t.Fatal(err)
	}
	clientPools := &httpsim.Pools{}
	type result struct {
		meta httpsim.ResponseMeta
		done bool
		err  error
	}
	get := func(name, path string) (httpsim.ClientConn, *result) {
		conn := httpsim.DialH2(client, "edge", httpsim.TCPPort, name, httpsim.DialConfig{Pools: clientPools})
		res := &result{}
		conn.Do(&httpsim.Request{Host: "cdn.site.sim", Path: path}, httpsim.RequestEvents{
			OnHeaders:  func(m httpsim.ResponseMeta) { res.meta = m },
			OnComplete: func() { res.done = true },
			OnError:    func(err error) { res.err = err },
		})
		return conn, res
	}
	_, leader := get("leader.sim", "/5000")
	aborted, waiter := get("waiter.sim", "/5000")
	sched.At(20*time.Millisecond, aborted.Abort)
	var next *result
	sched.At(30*time.Millisecond, func() { _, next = get("next.sim", "/777") })
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}

	if edge.Stampedes() != 1 {
		t.Fatalf("%d stampede joins, want the aborted request's 1", edge.Stampedes())
	}
	if ctxAt["next.sim"] != ctxAt["waiter.sim"] {
		t.Fatal("the new connection did not reuse the aborted one's server record")
	}
	if waiter.done || waiter.meta.Status != 0 {
		t.Fatalf("the aborted request got a response: %+v", waiter.meta)
	}
	for _, c := range []struct {
		res  *result
		size int
	}{{leader, 5000}, {next, 777}} {
		if c.res.err != nil || !c.res.done || c.res.meta.Status != 200 || c.res.meta.BodySize != c.size {
			t.Fatalf("request for %d bytes: err %v, done %v, meta %+v", c.size, c.res.err, c.res.done, c.res.meta)
		}
	}
}
