package bufpool

import "testing"

func TestGetLength(t *testing.T) {
	var a Arena
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 16*1024 + 10, 64 * 1024, 64*1024 + 1, 1 << 20} {
		buf := a.Get(n)
		if len(buf) != n {
			t.Fatalf("Get(%d): len %d", n, len(buf))
		}
		a.Put(buf)
	}
}

func TestRoundTripReuses(t *testing.T) {
	var a Arena
	buf := a.Get(1000) // 1024-byte class
	a.Put(buf)
	again := a.Get(1024)
	if &again[0] != &buf[0] || cap(again) != 1024 {
		t.Fatalf("Get after Put: new array or cap %d, want the same 1024-byte array", cap(again))
	}
	if st := a.Stats(); st.Gets != 2 || st.Puts != 1 || st.News != 1 || st.InUse != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutIgnoresOddCaps(t *testing.T) {
	// Buffers whose capacity is not an exact class size must not enter
	// the free lists (Get assumes class-sized backing arrays), but they
	// still count toward the balance.
	var a Arena
	odd := [][]byte{
		make([]byte, 300),          // not a power of two
		make([]byte, 0),            // cap 0
		make([]byte, 128),          // below the smallest class
		make([]byte, 1<<24),        // above the largest class
		a.Get(1<<maxClassBits + 1), // an over-max Get coming home
	}
	for _, buf := range odd {
		a.Put(buf)
	}
	for c := range a.free {
		if len(a.free[c]) != 0 {
			t.Fatalf("class %d holds %d buffers after odd Puts", c, len(a.free[c]))
		}
	}
	if st := a.Stats(); st.Puts != uint64(len(odd)) || st.InUse != 1-int64(len(odd)) {
		t.Fatalf("odd Puts not counted: %+v", st)
	}
	if buf := a.Get(300); len(buf) != 300 || cap(buf) != 512 {
		t.Fatalf("len=%d cap=%d after odd Puts", len(buf), cap(buf))
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {256, 0}, {257, 1}, {512, 1},
		{16 * 1024, 6}, {16*1024 + 1, 7}, {64 * 1024, 8}, {64*1024 + 1, 9},
		{1 << 23, 15}, {1<<23 + 1, -1},
	}
	for _, c := range cases {
		if got := sizeClass(c.n, minClassBits, maxClassBits); got != c.class {
			t.Fatalf("sizeClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

// TestSpanArraysLend: a nil span list borrows a 4-span array, a full one
// moves to one twice its size and gives the old one back zeroed, a later
// borrow of that size reuses it, and an array above the largest class is
// lent but never kept. Lent counts the arrays out.
func TestSpanArraysLend(t *testing.T) {
	var a Arena
	buf := []byte{1}
	grow := func(n int) []Span {
		var s []Span
		for i := range n {
			s = a.AppendSpan(s, Span{Off: uint64(i), Data: buf})
		}
		return s
	}
	s := grow(1)
	four := &s[0]
	for i := 1; i < 5; i++ {
		s = a.AppendSpan(s, Span{Off: uint64(i), Data: buf})
	}
	if len(s) != 5 || cap(s) != 8 || s[4].End() != 5 || a.Stats().Lent != 1 {
		t.Fatalf("5 appends: len %d cap %d, end %d, %+v", len(s), cap(s), s[4].End(), a.Stats())
	}
	small := a.AppendSpan(nil, Span{})
	if cap(small) != 4 || &small[0] != four || small[:4][3].Data != nil || a.Stats().Lent != 2 {
		t.Fatalf("the outgrown 4-span array, zeroed, was not lent again: cap %d, %+v", cap(small), a.Stats())
	}
	eight := &s[0]
	a.PutSpans(s)
	if s[0].Data != nil || s[4].Data != nil || a.Stats().Lent != 1 {
		t.Fatalf("PutSpans left spans set or the count off: %+v", a.Stats())
	}
	if again := grow(5); &again[0] != eight {
		t.Fatal("an 8-span array given back was not lent again")
	}
	huge := grow(1<<maxSpanBits + 1)
	a.PutSpans(huge)
	if cap(huge) != 2<<maxSpanBits || len(a.spans[numSpanClasses-1]) != 1 || a.Stats().Lent != 2 {
		t.Fatalf("an over-max array: cap %d, largest class holds %d, %+v", cap(huge), len(a.spans[numSpanClasses-1]), a.Stats())
	}
}
