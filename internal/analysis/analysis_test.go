package analysis

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if !almostEq(Mean(xs), 2.5) {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if !almostEq(Median(xs), 2.5) {
		t.Fatalf("Median = %v", Median(xs))
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if !almostEq(Quantile(xs, 0), 10) || !almostEq(Quantile(xs, 1), 50) {
		t.Fatal("extremes wrong")
	}
	if !almostEq(Quantile(xs, 0.25), 20) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
	if !almostEq(Quantile(xs, 0.5), 30) {
		t.Fatalf("q50 = %v", Quantile(xs, 0.5))
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestCDFAndCCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	cdf := NewSorted(xs).CDF()
	want := []Point{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if len(cdf) != len(want) {
		t.Fatalf("cdf = %v", cdf)
	}
	for i := range want {
		if !almostEq(cdf[i].X, want[i].X) || !almostEq(cdf[i].Y, want[i].Y) {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	ccdf := CCDF(xs)
	if !almostEq(ccdf[0].Y, 0.75) || !almostEq(ccdf[2].Y, 0) {
		t.Fatalf("ccdf = %v", ccdf)
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		cdf := NewSorted(raw).CDF()
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X <= cdf[i-1].X || cdf[i].Y < cdf[i-1].Y {
				return false
			}
		}
		return almostEq(cdf[len(cdf)-1].Y, 1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateY(t *testing.T) {
	curve := []Point{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	if got := InterpolateY(curve, 2.5); !almostEq(got, 0.75) {
		t.Fatalf("InterpolateY(2.5) = %v", got)
	}
	if got := InterpolateY(curve, 0.5); got != 0 {
		t.Fatalf("before curve = %v", got)
	}
	if got := InterpolateY(curve, 99); !almostEq(got, 1) {
		t.Fatalf("after curve = %v", got)
	}
}

func TestQuartileGroups(t *testing.T) {
	keys := []float64{8, 1, 6, 3, 7, 2, 5, 4}
	groups := QuartileGroups(keys)
	for g, want := range [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}} {
		if len(groups[g]) != 2 {
			t.Fatalf("group %d size %d", g, len(groups[g]))
		}
		got := []float64{keys[groups[g][0]], keys[groups[g][1]]}
		sort.Float64s(got)
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("group %d = %v, want %v", g, got, want)
		}
	}
	if GroupNames()[0] != "Low" || GroupNames()[3] != "High" {
		t.Fatal("group names wrong")
	}
}

func TestQuartileGroupsCoverAll(t *testing.T) {
	f := func(raw []float64) bool {
		groups := QuartileGroups(raw)
		seen := make(map[int]bool)
		total := 0
		for _, g := range groups {
			for _, i := range g {
				if seen[i] {
					return false
				}
				seen[i] = true
				total++
			}
		}
		return total == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a, 1) || !almostEq(b, 2) {
		t.Fatalf("fit = %v + %v x", a, b)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point accepted")
	}
}

func TestKMeansTwoBlobs(t *testing.T) {
	var vectors [][]float64
	// Blob A near (0,0), blob B near (10,10).
	for i := 0; i < 10; i++ {
		vectors = append(vectors, []float64{float64(i%3) * 0.1, float64(i%2) * 0.1})
	}
	for i := 0; i < 10; i++ {
		vectors = append(vectors, []float64{10 + float64(i%3)*0.1, 10 + float64(i%2)*0.1})
	}
	res, err := KMeans(vectors, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	first := res[0]
	for i := 1; i < 10; i++ {
		if res[i] != first {
			t.Fatalf("blob A split: %v", res)
		}
	}
	for i := 10; i < 20; i++ {
		if res[i] == first {
			t.Fatalf("blobs merged: %v", res)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vectors := [][]float64{{0, 1}, {1, 0}, {5, 5}, {6, 5}, {0, 0}, {5, 6}}
	a, err := KMeans(vectors, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(vectors, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, 10); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := KMeans([][]float64{{1}}, 2, 10); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := KMeans([][]float64{{1}, {1, 2}}, 1, 10); err == nil {
		t.Fatal("ragged vectors accepted")
	}
}
