// Package sketch provides deterministic, mergeable, bounded-size metric
// accumulators for streaming campaign aggregation: a DDSketch-style
// log-bucketed quantile sketch with a guaranteed relative-error bound, a
// fixed-bucket histogram, plain counters, and a deterministic reservoir
// sampler. Together they let a campaign fold every finished visit into a
// few kilobytes of per-shard state instead of retaining raw page logs,
// so a 100k-page run holds O(shards × sketch size) memory.
//
// Every type is mergeable, and every merge is associative and
// commutative on the stored state: bucket counts, zero counts, integer
// sums, min/max. No floating-point accumulation order leaks into the
// result, so shards can be folded in any completion order and the merged
// sketch is byte-for-byte identical — the property the campaign's
// worker-count determinism guarantee rides on. (The one caveat is bucket
// collapse: a sketch whose value span exceeds maxBuckets log-buckets
// collapses its lowest buckets, and the collapse point can depend on
// insertion order. The default 2048-bucket budget covers a value span of
// ~10^17 at α = 1%, far beyond any simulated duration range, so collapse
// never fires in practice.)
package sketch

import (
	"math"
	"sort"
)

// DefaultAlpha is the relative-error bound campaigns use: quantile
// estimates are within ±1% of the exact order statistic.
const DefaultAlpha = 0.01

// defaultMaxBuckets bounds a quantile sketch's bucket map. At α = 1%
// (γ ≈ 1.0202) this spans a value ratio of γ^2048 ≈ 10^17.
const defaultMaxBuckets = 2048

// Quantile is a DDSketch-style quantile sketch over non-negative values:
// values are assigned to logarithmic buckets (γ = (1+α)/(1−α)), so any
// quantile query returns an estimate within relative error α of the
// exact order statistic at that rank. Non-positive values collapse into
// a dedicated zero bucket. Memory is O(log(max/min)/log γ), independent
// of the number of observations.
type Quantile struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	counts     map[int32]uint64
	zeros      uint64 // observations ≤ 0
	count      uint64
	min, max   float64
	maxBuckets int
}

// NewQuantile returns an empty sketch with relative-error bound alpha
// (values outside (0, 1) select DefaultAlpha).
func NewQuantile(alpha float64) *Quantile {
	if alpha <= 0 || alpha >= 1 {
		alpha = DefaultAlpha
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Quantile{
		alpha:      alpha,
		gamma:      gamma,
		lnGamma:    math.Log(gamma),
		counts:     make(map[int32]uint64),
		min:        math.Inf(1),
		max:        math.Inf(-1),
		maxBuckets: defaultMaxBuckets,
	}
}

// Add folds one observation. NaN is ignored; values ≤ 0 land in the
// zero bucket (the sketch's error bound applies to positive values).
func (q *Quantile) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	q.count++
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	if v <= 0 {
		q.zeros++
		return
	}
	q.counts[q.index(v)]++
	if len(q.counts) > q.maxBuckets {
		q.collapse()
	}
}

// index maps a positive value to its log-bucket: bucket i covers
// (γ^(i−1), γ^i].
func (q *Quantile) index(v float64) int32 {
	return int32(math.Ceil(math.Log(v) / q.lnGamma))
}

// estimate returns bucket i's representative value 2γ^i/(γ+1), whose
// relative error vs any value in the bucket is at most α.
func (q *Quantile) estimate(i int32) float64 {
	return 2 * math.Exp(float64(i)*q.lnGamma) / (q.gamma + 1)
}

// collapse folds the lowest buckets together until the budget holds,
// preserving total count; only the cheapest (lowest-value) estimates
// lose accuracy, as in DDSketch's collapsing store.
func (q *Quantile) collapse() {
	keys := q.sortedKeys()
	floor := keys[len(keys)-q.maxBuckets]
	var folded uint64
	for _, k := range keys {
		if k >= floor {
			break
		}
		folded += q.counts[k]
		delete(q.counts, k)
	}
	q.counts[floor] += folded
}

func (q *Quantile) sortedKeys() []int32 {
	keys := make([]int32, 0, len(q.counts))
	for k := range q.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Query returns an estimate of the p-th quantile (p in [0, 1]): the
// value at 0-based rank round(p·(count−1)), within relative error α.
// Empty sketches return 0.
func (q *Quantile) Query(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Round(p * float64(q.count-1)))
	if rank < q.zeros {
		// Non-positive observations carry no log-bucket; the best
		// estimate is the recorded minimum (≤ 0 by construction).
		return math.Min(q.min, 0)
	}
	cum := q.zeros
	for _, k := range q.sortedKeys() {
		cum += q.counts[k]
		if rank < cum {
			// Clamping to the observed range only tightens the bound.
			return math.Min(math.Max(q.estimate(k), q.min), q.max)
		}
	}
	return q.max
}

// Merge folds o into q. Merging is associative and commutative; both
// sketches must share the same α (merging incompatible resolutions
// would silently void the error bound, so it panics). A nil or empty o
// is a no-op.
func (q *Quantile) Merge(o *Quantile) {
	if o == nil || o.count == 0 {
		return
	}
	if o.alpha != q.alpha {
		panic("sketch: merging quantile sketches with different alpha")
	}
	for k, n := range o.counts {
		q.counts[k] += n
	}
	q.zeros += o.zeros
	q.count += o.count
	if o.min < q.min {
		q.min = o.min
	}
	if o.max > q.max {
		q.max = o.max
	}
	if len(q.counts) > q.maxBuckets {
		q.collapse()
	}
}

// Histogram is a fixed-bucket histogram: bucket i counts observations in
// (bounds[i−1], bounds[i]], with an extra overflow bucket above the last
// bound. Bounds are fixed at construction, so merging is exact.
type Histogram struct {
	bounds []float64
	counts []uint64
	count  uint64
}

// NewHistogram returns an empty histogram over the given ascending
// bucket bounds (copied; must be strictly increasing).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("sketch: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Add folds one observation (NaN is ignored).
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bound whose value is ≥ v: bucket i covers (bounds[i-1], bounds[i]].
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
}

// Merge folds o into h. Both histograms must share identical bounds.
// A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if len(o.bounds) != len(h.bounds) {
		panic("sketch: merging histograms with different bounds")
	}
	for i, b := range o.bounds {
		if b != h.bounds[i] {
			panic("sketch: merging histograms with different bounds")
		}
	}
	for i, n := range o.counts {
		h.counts[i] += n
	}
	h.count += o.count
}

// Counter is a mergeable int64 accumulator.
type Counter int64

// Add increments the counter by n.
func (c *Counter) Add(n int64) { *c += Counter(n) }

// Merge folds o into c.
func (c *Counter) Merge(o Counter) { *c += o }

// Value returns the accumulated total.
func (c Counter) Value() int64 { return int64(c) }
