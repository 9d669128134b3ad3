package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// exactQuantile returns the order statistic at 0-based rank
// round(p·(n−1)) — the statistic Quantile.Query estimates.
func exactQuantile(sorted []float64, p float64) float64 {
	rank := int(math.Round(p * float64(len(sorted)-1)))
	return sorted[rank]
}

// checkErrorBound asserts every queried quantile of q is within
// relative error α of the exact order statistic of xs.
func checkErrorBound(t *testing.T, q *Quantile, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		got := q.Query(p)
		want := exactQuantile(sorted, p)
		if want <= 0 {
			// Zero-bucket values estimate as min(min, 0).
			if got > 0 {
				t.Fatalf("p=%v: got %v for non-positive exact %v", p, got, want)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > q.alpha+1e-12 {
			t.Fatalf("p=%v: got %v, exact %v, relative error %v > α=%v", p, got, want, rel, q.alpha)
		}
	}
}

func TestQuantileErrorBoundAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 1 + 999*rng.Float64()
			}
			return xs
		},
		// Heavy tail: Pareto-like, spanning ~6 orders of magnitude.
		"heavy-tail": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Pow(1-rng.Float64(), -2.5)
			}
			return xs
		},
		// Point mass: every observation identical.
		"point-mass": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 123.456
			}
			return xs
		},
		// Point mass plus a single extreme outlier.
		"point-mass-outlier": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 5
			}
			xs[n-1] = 5e8
			return xs
		},
		// Bimodal with a zero-heavy head (zeros exercise the zero bucket).
		"zero-head": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if i%4 == 0 {
					xs[i] = 0
				} else {
					xs[i] = 50 + 10*rng.Float64()
				}
			}
			return xs
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 1000} {
				xs := gen(n)
				q := NewQuantile(DefaultAlpha)
				for _, x := range xs {
					q.Add(x)
				}
				if q.count != uint64(n) {
					t.Fatalf("count %d, want %d", q.count, n)
				}
				checkErrorBound(t, q, xs)
			}
		})
	}
}

func TestQuantileEmpty(t *testing.T) {
	q := NewQuantile(DefaultAlpha)
	if q.count != 0 || q.Query(0.5) != 0 {
		t.Fatalf("empty sketch: count=%d median=%v", q.count, q.Query(0.5))
	}
	// Merging an empty sketch is a no-op; merging into one adopts state.
	o := NewQuantile(DefaultAlpha)
	o.Add(10)
	q.Merge(o)
	if q.count != 1 || q.Query(1) == 0 {
		t.Fatalf("merge into empty: count=%d", q.count)
	}
	q.Merge(NewQuantile(DefaultAlpha))
	if q.count != 1 {
		t.Fatal("merging an empty sketch changed the count")
	}
}

// TestQuantileMergeOrderIndependent verifies the tentpole determinism
// property: merging shard sketches in any order — including nested
// groupings — yields bit-identical sketch state, and the merged sketch
// matches one built from the concatenated stream.
func TestQuantileMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const shards = 13
	parts := make([]*Quantile, shards)
	var all []float64
	for s := range parts {
		parts[s] = NewQuantile(DefaultAlpha)
		for i := 0; i < 200+s*17; i++ {
			v := math.Exp(rng.NormFloat64()*2) * 100
			parts[s].Add(v)
			all = append(all, v)
		}
	}
	direct := NewQuantile(DefaultAlpha)
	for _, v := range all {
		direct.Add(v)
	}

	mergeOrder := func(order []int) *Quantile {
		m := NewQuantile(DefaultAlpha)
		for _, s := range order {
			m.Merge(parts[s])
		}
		return m
	}
	ref := mergeOrder([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if !reflect.DeepEqual(ref.counts, direct.counts) || ref.count != direct.count || ref.zeros != direct.zeros {
		t.Fatal("merged sketch state differs from the directly-built sketch")
	}
	for trial := 0; trial < 20; trial++ {
		order := rng.Perm(shards)
		got := mergeOrder(order)
		if !reflect.DeepEqual(got.counts, ref.counts) || got.count != ref.count ||
			got.min != ref.min || got.max != ref.max || got.zeros != ref.zeros {
			t.Fatalf("merge order %v produced different state", order)
		}
	}
	// Associativity: merging pre-merged halves equals the flat merge.
	for trial := 0; trial < 10; trial++ {
		order := rng.Perm(shards)
		cut := 1 + rng.Intn(shards-2)
		left, right := mergeOrder(order[:cut]), mergeOrder(order[cut:])
		left.Merge(right)
		if !reflect.DeepEqual(left.counts, ref.counts) || left.count != ref.count {
			t.Fatalf("nested merge of %v at cut %d produced different state", order, cut)
		}
	}
}

func TestQuantileCollapseBoundsBuckets(t *testing.T) {
	q := NewQuantile(DefaultAlpha)
	q.maxBuckets = 16
	for i := 0; i < 4000; i++ {
		q.Add(math.Pow(1.5, float64(i%400)))
	}
	if len(q.counts) > 16 {
		t.Fatalf("buckets %d exceed the budget", len(q.counts))
	}
	if q.count != 4000 {
		t.Fatalf("collapse lost observations: %d", q.count)
	}
	// High quantiles keep their bound (collapse only folds low buckets).
	xs := make([]float64, 0, 4000)
	for i := 0; i < 4000; i++ {
		xs = append(xs, math.Pow(1.5, float64(i%400)))
	}
	sort.Float64s(xs)
	got, want := q.Query(0.99), exactQuantile(xs, 0.99)
	if rel := math.Abs(got-want) / want; rel > q.alpha+1e-12 {
		t.Fatalf("p99 after collapse: got %v want %v rel %v", got, want, rel)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 100, 500, 5000, 0} {
		h.Add(v)
	}
	want := []uint64{3, 2, 1, 1} // (≤10)=5,10,0; (10,100]=11,100; (100,1000]=500; >1000=5000
	if !reflect.DeepEqual(h.counts, want) {
		t.Fatalf("counts %v, want %v", h.counts, want)
	}
	o := NewHistogram([]float64{10, 100, 1000})
	o.Add(50)
	h.Merge(o)
	if h.count != 8 || h.counts[1] != 3 {
		t.Fatalf("after merge: count=%d counts=%v", h.count, h.counts)
	}
}

func TestReservoirDeterministicAndOrdered(t *testing.T) {
	build := func() []int {
		r := NewReservoir[int](8, 99)
		for i := 0; i < 1000; i++ {
			r.Offer(i)
		}
		return r.Items()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different samples: %v vs %v", a, b)
	}
	if len(a) != 8 {
		t.Fatalf("sample size %d, want 8", len(a))
	}
	if !sort.IntsAreSorted(a) {
		t.Fatalf("items not in offer order: %v", a)
	}
	// A different seed picks a different sample (with overwhelming odds).
	r2 := NewReservoir[int](8, 100)
	for i := 0; i < 1000; i++ {
		r2.Offer(i)
	}
	if reflect.DeepEqual(a, r2.Items()) {
		t.Fatal("different seeds produced identical samples")
	}
	// Under-full reservoirs keep everything.
	small := NewReservoir[int](8, 1)
	for i := 0; i < 3; i++ {
		small.Offer(i)
	}
	if got := small.Items(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("underfull sample %v", got)
	}
	if small.seen != 3 {
		t.Fatalf("seen %d", small.seen)
	}
	// Zero capacity retains nothing and never panics.
	zero := NewReservoir[int](0, 5)
	for i := 0; i < 10; i++ {
		zero.Offer(i)
	}
	if len(zero.items) != 0 {
		t.Fatalf("zero-capacity reservoir holds %d items", len(zero.items))
	}
}

// TestReservoirJSONResumes checks the checkpoint form: a reservoir
// decoded mid-stream selects exactly what the original goes on to
// select, and inconsistent state is refused.
func TestReservoirJSONResumes(t *testing.T) {
	orig := NewReservoir[int](8, 99)
	for i := 0; i < 500; i++ {
		orig.Offer(i)
	}
	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back := NewReservoir[int](1, 0)
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 1000; i++ {
		orig.Offer(i)
		back.Offer(i)
	}
	if !reflect.DeepEqual(orig.Items(), back.Items()) || orig.seen != back.seen {
		t.Fatalf("resumed reservoir diverged: %v vs %v", orig.Items(), back.Items())
	}
	for _, bad := range []string{
		`{"capacity":2,"seen":3,"rng":1,"seqs":[1,2,3],"items":[1,2,3]}`, // over capacity
		`{"capacity":2,"seen":2,"rng":1,"seqs":[1],"items":[1,2]}`,       // seqs/items mismatch
		`{"capacity":2,"seen":1,"rng":1,"seqs":[1,2],"items":[1,2]}`,     // more items than offers
		`{"capacity":-1}`,
	} {
		if err := json.Unmarshal([]byte(bad), NewReservoir[int](1, 0)); err == nil {
			t.Fatalf("accepted inconsistent reservoir state %s", bad)
		}
	}
}

func TestAccumulatorFoldMergeModeGroup(t *testing.T) {
	mk := func(vant string, plts []int64) *MetricAccumulator {
		a := NewAccumulator(DefaultAlpha)
		g := a.Group(Key{Mode: "h3", Vantage: vant})
		for _, p := range plts {
			g.Fold(VisitSample{
				PLTNs: p * int64(1e6), Bytes: 1000, Entries: 10, Failed: 1, Retries: 2,
				Reused: 3, Resumed: 1,
				Phase: &PhaseSample{Ns: [NumPhases]int64{0, p * 1e5, p * 1e5, 0, p * 8e5, 0}},
			})
		}
		return a
	}
	a := mk("utah", []int64{100, 200, 300})
	b := mk("wisc", []int64{400, 500})

	merged := NewAccumulator(DefaultAlpha)
	merged.Merge(a)
	merged.Merge(b)
	if got := merged.Pages(); got != 5 {
		t.Fatalf("pages %d, want 5", got)
	}
	keys := merged.Keys()
	if len(keys) != 2 || keys[0].Vantage != "utah" || keys[1].Vantage != "wisc" {
		t.Fatalf("keys %v", keys)
	}

	g := merged.ModeGroup("h3")
	if g == nil || g.Pages != 5 || g.PhasePages != 5 {
		t.Fatalf("mode group %+v", g)
	}
	if g.Bytes.Value() != 5000 || g.Entries.Value() != 50 || g.Failed.Value() != 5 {
		t.Fatalf("counters: bytes=%d entries=%d failed=%d", g.Bytes.Value(), g.Entries.Value(), g.Failed.Value())
	}
	// Exact integer mean: (100+200+300+400+500)/5 = 300 ms.
	if got := g.MeanPLTMs(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("mean PLT %v, want 300", got)
	}
	// Sketch median within α of the exact median (300 ms).
	if got := g.MedianPLTMs(); math.Abs(got-300)/300 > DefaultAlpha {
		t.Fatalf("median PLT %v, want 300 ± α", got)
	}
	// Phase sums are exact.
	if g.PhaseSumNs[1] != (100+200+300+400+500)*int64(1e5) {
		t.Fatalf("phase connect sum %d", g.PhaseSumNs[1])
	}
	if merged.ModeGroup("h2") != nil {
		t.Fatal("unknown mode should have no group")
	}
	if merged.Lookup(Key{Mode: "h3", Vantage: "nowhere"}) != nil {
		t.Fatal("lookup of unfolded key should be nil")
	}
	// ModeGroup returns a copy: folding into it must not perturb the
	// accumulator.
	g.Fold(VisitSample{PLTNs: 1})
	if merged.Pages() != 5 {
		t.Fatal("ModeGroup leaked shared state")
	}
}

func TestWarmthSplitFoldMerge(t *testing.T) {
	a := NewAccumulator(DefaultAlpha)
	g := a.Group(Key{Mode: "h3", Vantage: "pop"})
	// Legacy sample (no cache classification): warmth stays untouched.
	g.Fold(VisitSample{PLTNs: 500e6, Entries: 5})
	// Cold visit (document miss) and two warm visits.
	g.Fold(VisitSample{PLTNs: 900e6, Entries: 5, CacheHits: 1, CacheMisses: 4, Warm: false})
	g.Fold(VisitSample{PLTNs: 300e6, Entries: 5, CacheHits: 5, Warm: true})
	g.Fold(VisitSample{PLTNs: 320e6, Entries: 5, CacheHits: 4, CacheMisses: 1, Warm: true})
	if g.ColdPages != 1 || g.WarmPages != 2 {
		t.Fatalf("cold=%d warm=%d, want 1/2", g.ColdPages, g.WarmPages)
	}
	if g.CacheHits.Value() != 10 || g.CacheMisses.Value() != 5 {
		t.Fatalf("cache hits=%d misses=%d, want 10/5", g.CacheHits.Value(), g.CacheMisses.Value())
	}
	if g.PLTCold.count != 1 || g.PLTWarm.count != 2 {
		t.Fatalf("split sketch counts %d/%d, want 1/2", g.PLTCold.count, g.PLTWarm.count)
	}
	if cold, warm := g.PLTCold.Query(0.5), g.PLTWarm.Query(0.5); cold <= warm {
		t.Fatalf("cold median %v not above warm median %v", cold, warm)
	}
	// Merge carries the split.
	b := NewAccumulator(DefaultAlpha)
	b.Merge(a)
	bg := b.Lookup(Key{Mode: "h3", Vantage: "pop"})
	if bg.ColdPages != 1 || bg.WarmPages != 2 || bg.CacheHits.Value() != 10 {
		t.Fatalf("merged warmth lost: %+v", bg)
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	mk := func() *MetricAccumulator {
		a := NewAccumulator(DefaultAlpha)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			mode := []string{"h2", "h3"}[i%2]
			a.Group(Key{Mode: mode, Vantage: "pop"}).Fold(VisitSample{
				PLTNs: int64(rng.Intn(2e9)), Bytes: int64(rng.Intn(1e6)), Entries: 12,
				Retries: int64(i % 3), Reused: 4, Resumed: int64(i % 2),
				CacheHits: int64(i % 5), CacheMisses: int64((i + 1) % 4), Warm: i%3 == 0,
				Phase: &PhaseSample{Ns: [NumPhases]int64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6}},
			})
		}
		return a
	}
	a := mk()
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricAccumulator
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	// Determinism: re-encoding the decoded accumulator reproduces the
	// exact bytes (sorted buckets, sorted groups).
	blob2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("JSON round-trip not byte-stable")
	}
	for _, k := range a.Keys() {
		ag, bg := a.Lookup(k), back.Lookup(k)
		if bg == nil {
			t.Fatalf("group %v lost in round-trip", k)
		}
		if ag.Pages != bg.Pages || ag.PLTSumNs != bg.PLTSumNs || ag.Bytes != bg.Bytes ||
			ag.ColdPages != bg.ColdPages || ag.WarmPages != bg.WarmPages ||
			ag.CacheHits != bg.CacheHits || ag.PhasePages != bg.PhasePages {
			t.Fatalf("group %v sums differ after round-trip", k)
		}
		for p := 0.0; p <= 1.0; p += 0.01 {
			if ag.PLT.Query(p) != bg.PLT.Query(p) || ag.PLTWarm.Query(p) != bg.PLTWarm.Query(p) {
				t.Fatalf("group %v quantile %v differs after round-trip", k, p)
			}
		}
		if !reflect.DeepEqual(ag.PLTHist.counts, bg.PLTHist.counts) {
			t.Fatalf("group %v histogram differs after round-trip", k)
		}
		// The decoded group must keep folding/merging like the original.
		bg.Fold(VisitSample{PLTNs: 1e6, Entries: 1})
		bg.Merge(ag)
		if bg.Pages != 2*ag.Pages+1 {
			t.Fatalf("decoded group fold/merge broken: %d pages", bg.Pages)
		}
	}
	// Empty sketch round-trip (±Inf min/max sentinels).
	q := NewQuantile(DefaultAlpha)
	eb, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var qb Quantile
	if err := json.Unmarshal(eb, &qb); err != nil {
		t.Fatal(err)
	}
	qb.Add(5)
	if qb.min != 5 || qb.max != 5 || qb.count != 1 {
		t.Fatalf("decoded empty sketch broken: min=%v max=%v count=%d", qb.min, qb.max, qb.count)
	}
}

func TestAccumulatorMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parts := make([]*MetricAccumulator, 9)
	for s := range parts {
		parts[s] = NewAccumulator(DefaultAlpha)
		for i := 0; i < 50; i++ {
			mode := []string{"h2", "h3"}[rng.Intn(2)]
			vant := []string{"utah", "wisc", "clem"}[rng.Intn(3)]
			parts[s].Group(Key{Mode: mode, Vantage: vant}).Fold(VisitSample{
				PLTNs: int64(rng.Intn(1e9)), Bytes: int64(rng.Intn(1e6)), Entries: 20,
			})
		}
	}
	merge := func(order []int) *MetricAccumulator {
		m := NewAccumulator(DefaultAlpha)
		for _, s := range order {
			m.Merge(parts[s])
		}
		return m
	}
	ref := merge([]int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	for trial := 0; trial < 10; trial++ {
		got := merge(rng.Perm(len(parts)))
		for _, k := range ref.Keys() {
			rg, gg := ref.Lookup(k), got.Lookup(k)
			if gg == nil {
				t.Fatalf("trial %d: group %v missing", trial, k)
			}
			if rg.Pages != gg.Pages || rg.PLTSumNs != gg.PLTSumNs || rg.Bytes != gg.Bytes {
				t.Fatalf("trial %d: group %v sums differ", trial, k)
			}
			if !reflect.DeepEqual(rg.PLT.counts, gg.PLT.counts) {
				t.Fatalf("trial %d: group %v sketch buckets differ", trial, k)
			}
			for p := 0.0; p <= 1.0; p += 0.05 {
				if rg.PLT.Query(p) != gg.PLT.Query(p) {
					t.Fatalf("trial %d: group %v quantile %v differs", trial, k, p)
				}
			}
		}
	}
}
