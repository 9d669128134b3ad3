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

// Grow only sizes and copies: the outgrown array stays with its owner,
// who Puts it for immediate reuse once nothing aliases it. A buffer
// retired at a teardown with bytes in flight stays out of circulation
// until Rewind, and comes back after.
func TestRetiredBuffersWaitForRewind(t *testing.T) {
	var a Arena
	small := a.Grow(nil, 100)
	if len(small) != 0 || cap(small) != growFloor {
		t.Fatalf("Grow(nil, 100): len=%d cap=%d, want 0/%d", len(small), cap(small), growFloor)
	}
	small = append(small, "payload"...)
	big := a.Grow(small, 3*growFloor)
	if string(big) != "payload" || cap(big) != 4*growFloor {
		t.Fatalf("Grow kept %q cap=%d, want \"payload\" cap=%d", big, cap(big), 4*growFloor)
	}
	if st := a.Stats(); st.Gets != 2 || st.Puts != 0 || st.InUse != 2 {
		t.Fatalf("Grow gave the outgrown array back itself: %+v", st)
	}
	sameArray := func(x, y []byte) bool { return &x[:1][0] == &y[:1][0] }

	a.Put(small) // acknowledged: reusable at once, no Rewind needed
	if buf := a.Get(growFloor); !sameArray(buf, small) {
		t.Fatal("outgrown buffer not reused after Put")
	}

	a.Retire(big)
	a.Retire(nil) // a conn that never wrote: nothing to quarantine
	if buf := a.Get(4 * growFloor); sameArray(buf, big) {
		t.Fatal("Get handed out a retired buffer before Rewind")
	}
	a.Rewind()
	if buf := a.Grow(nil, 4*growFloor); !sameArray(buf, big) {
		t.Fatal("retired buffer not reused after Rewind")
	}
}
