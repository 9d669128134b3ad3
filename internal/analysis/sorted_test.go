package analysis

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSortedMatchesPackageFunctions pins the Sorted view to the
// package-level routines it replaces: identical results, sort once.
func TestSortedMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := [][]float64{
		nil,
		{42},
		{3, 1, 2},
		{5, 5, 5, 5},
		func() []float64 {
			xs := make([]float64, 501)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 100
			}
			return xs
		}(),
	}
	for _, xs := range samples {
		s := NewSorted(xs)
		if len(s.xs) != len(xs) {
			t.Fatalf("Len %d, want %d", len(s.xs), len(xs))
		}
		for _, q := range []float64{-1, 0, 0.25, 0.5, 0.731, 0.95, 1, 2} {
			if got, want := s.Quantile(q), Quantile(xs, q); got != want {
				t.Fatalf("Quantile(%v): Sorted %v vs package %v (n=%d)", q, got, want, len(xs))
			}
		}
		if got, want := s.Median(), Median(xs); got != want {
			t.Fatalf("Median: Sorted %v vs package %v", got, want)
		}
		if !reflect.DeepEqual(s.CCDF(), CCDF(xs)) {
			t.Fatalf("CCDF mismatch (n=%d)", len(xs))
		}
	}
}

func TestSortedDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := NewSorted(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatal("NewSorted mutated its input")
	}
	xs[0] = 99
	if !reflect.DeepEqual(s.xs, []float64{1, 2, 3}) {
		t.Fatalf("Sorted holds %v, want [1 2 3]: it aliases the caller's slice", s.xs)
	}
}
