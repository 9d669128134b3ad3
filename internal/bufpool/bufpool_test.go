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
		if got := classFor(c.n); got != c.class {
			t.Fatalf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}
