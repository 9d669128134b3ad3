package bytestream

import (
	"testing"

	"h3cdn/internal/bufpool"
)

// TestOpaqueRunIdentity: every prefix and suffix of a run is recognised
// as one, a copy of a run or an arena buffer is not, a zero-length range
// takes no buffer, an append to a run reallocates instead of writing
// into it, and Recycle gives back buffers but never a run.
func TestOpaqueRunIdentity(t *testing.T) {
	for _, n := range []int{1, 2, 1460, MaxOpaque} {
		p := Opaque(n)
		if len(p) != n || cap(p) != n || !IsOpaque(p) {
			t.Fatalf("Opaque(%d): len %d cap %d, recognised %v", n, len(p), cap(p), IsOpaque(p))
		}
		for _, k := range []int{0, 1, n / 2, n - 1, n} {
			if !IsOpaque(p[:k]) || !IsOpaque(p[k:]) {
				t.Fatalf("Opaque(%d): prefix or suffix at %d not recognised", n, k)
			}
		}
		if IsOpaque(append([]byte(nil), p...)) {
			t.Fatalf("Opaque(%d): a copy is recognised as the run", n)
		}
		grown := append(p, 1)
		if IsOpaque(grown) || opaqueRun[MaxOpaque-1] != 0 {
			t.Fatalf("Opaque(%d): append wrote into the run", n)
		}
	}
	var a bufpool.Arena
	for _, n := range []int{1, 255, 256, 1460, 1 << 14} {
		buf := a.Get(n)
		if IsOpaque(buf) || IsOpaque(buf[:1]) || IsOpaque(buf[n-1:]) {
			t.Fatalf("arena buffer of %d bytes recognised as a run", n)
		}
		Recycle(&a, buf)
		Recycle(&a, Opaque(n))
		Recycle(&a, nil)
	}
	if st := a.Stats(); st.Gets != st.Puts || st.InUse != 0 {
		t.Fatalf("Recycle: arena %+v, want every buffer and no run back", st)
	}
	var x Extents
	x.Add(&a, 10, []byte("head"))
	for _, off := range []uint64{0, 10, 12, 14, 20} {
		if p := x.Payload(&a, off, 0); p != nil {
			t.Fatalf("Payload(%d, 0) = %d-cap buffer, want none", off, cap(p))
		}
	}
	if p := x.Payload(&a, 14, 100); !IsOpaque(p) {
		t.Fatal("a range behind the only extent is not an opaque run")
	}
	if p := x.Payload(&a, 0, 11); IsOpaque(p) || p[10] != 'h' {
		t.Fatal("a range reaching into an extent is not a buffer holding it")
	} else {
		a.Put(p)
	}
	x.Release(&a)
	if st := a.Stats(); st.InUse != 0 {
		t.Fatalf("arena %+v after Release", st)
	}
	for i, b := range opaqueRun {
		if b != 0 {
			t.Fatalf("opaque run byte %d is %d", i, b)
		}
	}
}
