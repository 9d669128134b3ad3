package analysis

import (
	"math"
	"sort"
)

// Sorted is a sort-once view of a sample: construction copies and sorts
// the data a single time, after which every quantile, median, or curve
// query is O(1) or O(n) with no re-sort. Report code that previously
// called Quantile/Median repeatedly on the same slice (each call copying
// and sorting, O(n log n) per call) should build one Sorted view and
// query it.
type Sorted struct {
	xs []float64
}

// NewSorted copies and sorts xs into a queryable view.
func NewSorted(xs []float64) Sorted {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Sorted{xs: s}
}

// Quantile returns the q-th quantile (linear interpolation, matching the
// package-level Quantile), q in [0,1]. Empty input returns 0.
func (s Sorted) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile (0 for empty input).
func (s Sorted) Median() float64 { return s.Quantile(0.5) }

// CDF returns the empirical cumulative distribution as sorted points
// (x = value, y = P(X ≤ x)), identical to the package-level CDF.
func (s Sorted) CDF() []Point {
	if len(s.xs) == 0 {
		return nil
	}
	out := make([]Point, 0, len(s.xs))
	n := float64(len(s.xs))
	for i, x := range s.xs {
		// Collapse duplicates to the last occurrence.
		if i+1 < len(s.xs) && s.xs[i+1] == x {
			continue
		}
		out = append(out, Point{X: x, Y: float64(i+1) / n})
	}
	return out
}

// CCDF returns the complementary CDF (y = P(X > x)).
func (s Sorted) CCDF() []Point {
	cdf := s.CDF()
	out := make([]Point, len(cdf))
	for i, p := range cdf {
		out[i] = Point{X: p.X, Y: 1 - p.Y}
	}
	return out
}
