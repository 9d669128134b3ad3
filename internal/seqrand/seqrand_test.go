package seqrand

import (
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := New(42).Stream("tcp", "host1")
	b := New(42).Stream("tcp", "host1")
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	src := New(42)
	a := src.Stream("tcp", "host1")
	b := src.Stream("tcp", "host2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different labels collided %d/100 draws", same)
	}
}

func TestLabelSeparator(t *testing.T) {
	src := New(7)
	if src.StreamSeed("ab", "c") == src.StreamSeed("a", "bc") {
		t.Fatal(`StreamSeed("ab","c") must differ from StreamSeed("a","bc")`)
	}
}

func TestSubEquivalence(t *testing.T) {
	src := New(99)
	direct := src.StreamSeed("a", "b", "c")
	viaSub := src.Sub("a").StreamSeed("b", "c")
	if direct != viaSub {
		t.Fatalf("Sub path mismatch: %d != %d", direct, viaSub)
	}
	viaSub2 := src.Sub("a", "b").StreamSeed("c")
	if direct != viaSub2 {
		t.Fatalf("Sub(2) path mismatch: %d != %d", direct, viaSub2)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	if New(1).StreamSeed("x") == New(2).StreamSeed("x") {
		t.Fatal("different root seeds produced the same stream seed")
	}
}

func TestStreamSeedStableAcrossCalls(t *testing.T) {
	f := func(seed uint64, label string) bool {
		s := New(seed)
		return s.StreamSeed(label) == s.StreamSeed(label)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabelHelper(t *testing.T) {
	if got, want := Label("probe", 3), "probe/3"; got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func TestStreamUniformish(t *testing.T) {
	// Cheap sanity check that derived streams are not degenerate:
	// mean of 10k uniforms should be near 0.5.
	r := New(123).Stream("uniform")
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("mean = %f, want ~0.5", mean)
	}
}
