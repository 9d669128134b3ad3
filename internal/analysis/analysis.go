// Package analysis provides the statistical tools the paper's evaluation
// uses: empirical CDF/CCDF curves, quantile-based grouping (Fig. 6a's
// Low/Medium-Low/Medium-High/High quartiles), k-means clustering for the
// §VI-D case study, and least-squares line fitting for Fig. 9's slopes.
package analysis

import (
	"errors"
	"sort"
)

// ErrNoData is returned by routines that need at least one observation.
var ErrNoData = errors.New("analysis: no data")

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the 50th percentile (0 for empty input).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile (linear interpolation), q in [0,1].
// Each call copies and sorts xs; callers querying several quantiles of
// the same sample should build a Sorted view instead.
func Quantile(xs []float64, q float64) float64 {
	return NewSorted(xs).Quantile(q)
}

// Point is one (x, y) sample of a distribution curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// CCDF returns the complementary CDF (y = P(X > x)).
func CCDF(xs []float64) []Point { return NewSorted(xs).CCDF() }

// InterpolateY evaluates a CDF/CCDF curve at x (step interpolation,
// returning the y of the greatest point with X ≤ x; defaults to the
// first point's y when x precedes the curve).
func InterpolateY(curve []Point, x float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	y := curve[0].Y
	if x < curve[0].X {
		// Before the first sample: CDF is 0, CCDF is 1.
		if curve[0].Y <= 0.5 {
			return 0
		}
		return 1
	}
	for _, p := range curve {
		if p.X > x {
			break
		}
		y = p.Y
	}
	return y
}

// QuartileGroups splits indices into four equal-size groups by ascending
// key: Low, Medium-Low, Medium-High, High (Fig. 6a's construction).
// Ties are broken by original index for determinism.
func QuartileGroups(keys []float64) [4][]int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var groups [4][]int
	n := len(idx)
	for g := 0; g < 4; g++ {
		lo := g * n / 4
		hi := (g + 1) * n / 4
		groups[g] = append([]int(nil), idx[lo:hi]...)
	}
	return groups
}

// GroupNames labels QuartileGroups' output.
func GroupNames() [4]string {
	return [4]string{"Low", "Medium-Low", "Medium-High", "High"}
}

// LinearFit computes the least-squares line y = a + b·x, returning
// (intercept, slope). It requires at least two distinct x values.
func LinearFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, ErrNoData
	}
	mx, my := Mean(xs), Mean(ys)
	num, den := 0.0, 0.0
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, 0, ErrNoData
	}
	b = num / den
	a = my - b*mx
	return a, b, nil
}
