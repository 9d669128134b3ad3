package bytestream

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
)

// arrival is one segment or frame as the receive side sees it.
type arrival struct {
	off  uint64
	data []byte
	fin  bool
}

// delivery is one data callback: the arrival that caused it, and the
// stream offset and length it carried.
type delivery struct{ arrival, off, n int }

// stall is one stall edge, at the arrival after which Stall reported it.
type stall struct {
	arrival int
	opened  bool
	parked  int
	held    time.Duration
}

// oracle is the receive side as it was before the sorted chunk array:
// every arrival beyond a hole parked in a map keyed by offset, and the
// whole map scanned for the lowest chunk at or below next on each pass.
// The FIN is an offset. Reassembly must reproduce it delivery for
// delivery, stall edge for stall edge, and copy for copy.
type oracle struct {
	next          uint64
	parked        map[uint64][]byte
	fin           uint64
	hasFin        bool
	eofAt         int
	stalled       bool
	since, copies int // copies: parkings of bytes that are not an opaque run
	log           []delivery
	stalls        []stall
}

func (o *oracle) receive(i int, a arrival) {
	end := a.off + uint64(len(a.data))
	if a.fin {
		o.fin, o.hasFin = end, true
	}
	if end > o.next && len(a.data) > 0 {
		data, off := a.data, a.off
		if off < o.next {
			data, off = data[o.next-off:], o.next
		}
		if prev, ok := o.parked[off]; off > o.next && (!ok || len(data) > len(prev)) {
			o.parked[off] = data
			if !IsOpaque(data) {
				o.copies++
			}
		} else if off == o.next {
			o.log = append(o.log, delivery{i, int(off), len(data)})
			o.next = end
		}
	}
	for {
		best, found := uint64(0), false
		for off := range o.parked {
			if off <= o.next && (!found || off < best) {
				best, found = off, true
			}
		}
		if !found {
			break
		}
		data := o.parked[best]
		delete(o.parked, best)
		if end := best + uint64(len(data)); end > o.next {
			o.log = append(o.log, delivery{i, int(o.next), int(end - o.next)})
			o.next = end
		}
	}
	if o.hasFin && o.eofAt < 0 && o.next >= o.fin {
		o.eofAt = i
	}
	switch stalled := len(o.parked) > 0; {
	case stalled && !o.stalled:
		n := 0
		for _, data := range o.parked {
			n += len(data)
		}
		o.stalls = append(o.stalls, stall{i, true, n, 0})
		o.stalled, o.since = true, i
	case !stalled && o.stalled:
		o.stalls = append(o.stalls, stall{i, false, 0, time.Duration(i - o.since)})
		o.stalled = false
	}
}

// streamBytes is an n-byte stream whose every third 700-byte stretch is
// opaque (zero), so that arrivals inside one are opaque runs.
func streamBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		if i/700%3 != 2 {
			p[i] = byte(i*7 + 1)
		}
	}
	return p
}

// cut returns the arrival for stream bytes [lo, hi): an opaque run when
// they all lie in one opaque stretch, as a sender builds it.
func cut(stream []byte, lo, hi int, fin bool) arrival {
	a := arrival{off: uint64(lo), data: stream[lo:hi], fin: fin}
	if hi > lo && lo/700 == (hi-1)/700 && lo/700%3 == 2 {
		a.data = Opaque(hi - lo)
	}
	return a
}

// schedule cuts stream the way a sender does: cuts of up to maxCut
// bytes, the FIN on the last one or on a bare FIN after it, then exact
// duplicates and overlapping re-cuts that a receiver trims, half of them
// starting at an original boundary so that they collide with parked
// chunks, and the ones that reach the end sometimes with the FIN. After
// a bare FIN, TCP (piggyback) also sends the last data segment again
// with the FIN on it, as a retransmission from sndUna does. The
// arrivals come in one of four orders: in order, without the extras;
// with local swaps; with lost originals late, as retransmissions; or
// shuffled. In the last three a bare FIN often lands beyond a hole.
func schedule(rng *rand.Rand, stream []byte, maxCut int, piggyback bool) []arrival {
	var as, extra []arrival
	for off := 0; off < len(stream); {
		n := min(1+rng.Intn(maxCut), len(stream)-off)
		as = append(as, cut(stream, off, off+n, false))
		off += n
	}
	if rng.Intn(3) == 0 {
		if last := as[len(as)-1]; piggyback {
			extra = append(extra, arrival{off: last.off, data: last.data, fin: true})
		}
		as = append(as, arrival{off: uint64(len(stream)), fin: true})
	} else {
		as[len(as)-1].fin = true
	}
	for i := 0; i < len(as)/4; i++ {
		extra = append(extra, as[rng.Intn(len(as))])
	}
	for i := 0; i < 1+len(as)/5 && len(stream) > 1; i++ {
		start := rng.Intn(len(stream) - 1)
		if o := as[rng.Intn(len(as))]; rng.Intn(2) == 0 && int(o.off) < len(stream)-1 {
			start = int(o.off)
		}
		end := start + 1 + rng.Intn(len(stream)-start-1)
		if rng.Intn(4) == 0 {
			end = len(stream)
		}
		extra = append(extra, cut(stream, start, end, end == len(stream) && rng.Intn(2) == 0))
	}
	switch rng.Intn(4) {
	case 1:
		as = append(as, extra...)
		for i := 1; i < len(as); i++ {
			if rng.Intn(4) == 0 {
				as[i-1], as[i] = as[i], as[i-1]
			}
		}
	case 2:
		var late []arrival
		kept := as[:0]
		for _, a := range as {
			if rng.Intn(6) == 0 {
				late = append(late, a)
			} else {
				kept = append(kept, a)
			}
		}
		as = append(append(kept, extra...), late...)
	case 3:
		as = append(as, extra...)
		rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	}
	return as
}

// run drives a Reassembly and the oracle through as and fails t on the
// first difference: a delivered byte that is not the stream's, or a
// delivery, EOF, stall edge or arena copy that the oracle does not have.
// It returns the Reassembly, still holding what it parked, and its arena.
func run(t testing.TB, stream []byte, as []arrival) (*Reassembly, *bufpool.Arena) {
	t.Helper()
	o := &oracle{parked: map[uint64][]byte{}, eofAt: -1}
	r, arena := &Reassembly{}, &bufpool.Arena{}
	var log []delivery
	var stalls []stall
	got, eofAt, eofs, i := 0, -1, 0, 0
	r.SetDataFunc(func(p []byte) {
		if got+len(p) > len(stream) || !bytes.Equal(p, stream[got:got+len(p)]) {
			t.Fatalf("delivery of %d bytes at offset %d is not the stream's", len(p), got)
		}
		log = append(log, delivery{i, got, len(p)})
		got += len(p)
	})
	for i = range as {
		o.receive(i, as[i])
		if r.Receive(arena, as[i].off, as[i].data, as[i].fin) {
			eofAt, eofs = i, eofs+1
		}
		if opened, parked, closed, held := r.Stall(time.Duration(i)); opened || closed {
			stalls = append(stalls, stall{i, opened, parked, held})
		}
	}
	if !slices.Equal(log, o.log) {
		t.Fatalf("deliveries\n got %v\nwant %v", log, o.log)
	}
	if eofAt != o.eofAt || eofs > 1 || r.EOF() != (eofAt >= 0) || r.Next() != o.next {
		t.Fatalf("EOF at arrival %d (%d times), next %d; oracle EOF at %d, next %d", eofAt, eofs, r.Next(), o.eofAt, o.next)
	}
	if !slices.Equal(stalls, o.stalls) {
		t.Fatalf("stall edges\n got %v\nwant %v", stalls, o.stalls)
	}
	if gets := arena.Stats().Gets; gets != uint64(o.copies) {
		t.Fatalf("%d arena copies, oracle parks %d", gets, o.copies)
	}
	return r, arena
}

// TestReassemblyMatchesReference: for random TCP-shaped (segments,
// piggybacked FINs) and QUIC-shaped (frames) arrival schedules,
// Reassembly delivers exactly the oracle's (arrival, offset, length)
// sequence — the same bytes in the same callbacks at the same arrival —
// reaches EOF at the same arrival, crosses the same stall edges and
// copies exactly the chunks the oracle parks that are not opaque runs.
// Every schedule holds the whole stream, so it ends at EOF with every
// copy back.
func TestReassemblyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) //nolint:gosec
	for trial := 0; trial < 1000; trial++ {
		tcp, maxCut := trial%2 == 0, 1200
		if tcp {
			maxCut = 1460
		}
		stream := streamBytes(1 + rng.Intn(20_000))
		r, arena := run(t, stream, schedule(rng, stream, maxCut, tcp))
		if !r.EOF() || r.Next() != uint64(len(stream)) || arena.Stats().InUse != 0 {
			t.Fatalf("trial %d: EOF %v at %d of %d, arena %+v", trial, r.EOF(), r.Next(), len(stream), arena.Stats())
		}
	}
}

// TestGapsMatchesSortedMap drives a Reassembly's parked chunks and a map
// with random parkings beyond a hole, longer chunks replacing shorter
// ones, and hole fills that drain the lowest chunks, tail-heavy like a
// loss recovery, and checks after every step that the chunk array walks
// the map in offset order, head first, and that Reset empties it.
func TestGapsMatchesSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //nolint:gosec
	for trial := 0; trial < 300; trial++ {
		r, a := &Reassembly{}, &bufpool.Arena{}
		ref := map[uint64]int{}
		next, tail := uint64(0), uint64(1)
		for op := 0; op < 400; op++ {
			if k := rng.Intn(10); k < 6 || len(ref) == 0 {
				// Mostly ascending arrivals, sometimes a fill-in.
				off := max(tail, next+1) + uint64(rng.Intn(3))
				if rng.Intn(4) == 0 {
					off = next + 1 + uint64(rng.Intn(int(tail-next)))
				}
				n := 1 + rng.Intn(8)
				tail = max(tail, off+1)
				r.Receive(a, off, Opaque(n), false)
				if n > ref[off] {
					ref[off] = n
				}
			} else {
				// Fill the hole below the lowest chunk, a byte short at
				// times; the drain pops every chunk it reaches.
				lo := uint64(0)
				for off := range ref {
					if lo == 0 || off < lo {
						lo = off
					}
				}
				fill := lo - next - uint64(rng.Intn(2))
				r.Receive(a, next, Opaque(int(fill)), false)
				for next += fill; ; {
					lo, found := uint64(0), false
					for off := range ref {
						if off <= next && (!found || off < lo) {
							lo, found = off, true
						}
					}
					if !found {
						break
					}
					next = max(next, lo+uint64(ref[lo]))
					delete(ref, lo)
				}
				tail = max(tail, next+1)
			}
			live := r.chunks[r.head:]
			if len(live) != len(ref) || r.Next() != next {
				t.Fatalf("trial %d op %d: %d chunks, next %d; map %d, next %d", trial, op, len(live), r.Next(), len(ref), next)
			}
			for i, c := range live {
				if n, ok := ref[c.off]; !ok || n != len(c.data) || i > 0 && live[i-1].off >= c.off {
					t.Fatalf("trial %d op %d: chunk %d is %d bytes at %d; map holds %d there (%v)", trial, op, i, len(c.data), c.off, n, ok)
				}
			}
		}
		if r.Reset(); len(r.chunks) != 0 || r.head != 0 || r.Next() != 0 || a.Stats().InUse != 0 {
			t.Fatalf("trial %d: after Reset %d chunks from %d, next %d, arena %+v", trial, len(r.chunks), r.head, r.Next(), a.Stats())
		}
	}
}

// TestFinIsAnOffset: a bare FIN beyond a hole parks nothing and opens no
// stall, where a chunk beyond the hole opens one; EOF comes with the
// last byte, once; and Release inside a delivery, as a teardown there
// does, ends the drain with every chunk back and keeps Next and EOF.
func TestFinIsAnOffset(t *testing.T) {
	r, a, stream := &Reassembly{}, &bufpool.Arena{}, streamBytes(400)
	if r.Receive(a, 400, nil, true) {
		t.Fatal("EOF with 400 bytes missing")
	}
	if opened, _, _, _ := r.Stall(1); opened {
		t.Fatal("a bare FIN beyond a hole opened a stall")
	}
	r.Receive(a, 100, stream[100:400], false)
	if opened, parked, _, _ := r.Stall(2); !opened || parked != 300 {
		t.Fatalf("a chunk beyond a hole: stall opened %v with %d bytes", opened, parked)
	}
	if !r.Receive(a, 0, stream[:100], false) || r.Next() != 400 || r.Receive(a, 400, nil, true) {
		t.Fatalf("hole filled: EOF %v at %d, or EOF twice", r.EOF(), r.Next())
	}
	if _, _, closed, held := r.Stall(5); !closed || held != 3 {
		t.Fatalf("hole filled: stall closed %v after %v", closed, held)
	}

	r = &Reassembly{}
	r.Receive(a, 200, stream[200:300], false)
	r.Receive(a, 300, stream[300:400], true)
	calls := 0
	r.SetDataFunc(func([]byte) {
		if calls++; calls == 2 {
			r.Release(a)
		}
	})
	r.Receive(a, 0, stream[:200], false)
	if calls != 2 || r.Next() != 300 || r.EOF() || a.Stats().InUse != 0 {
		t.Fatalf("Release in a delivery: %d deliveries, next %d, EOF %v, arena %+v", calls, r.Next(), r.EOF(), a.Stats())
	}
}

// TestReassemblySteadyStateDoesNotGrow: a receiver that drains one chunk
// per chunk parked reuses its array instead of growing without bound. It
// may grow once, to twice what it held plus the allocator's rounding, so
// that compaction moves each chunk once; then it holds. Chunks sit at
// every other offset, so each byte that fills a hole drains one chunk.
func TestReassemblySteadyStateDoesNotGrow(t *testing.T) {
	r, a := &Reassembly{}, &bufpool.Arena{}
	for off := uint64(1); off < 128; off += 2 {
		r.Receive(a, off, Opaque(1), false)
	}
	capAfterFill, capSteady := cap(r.chunks), 0
	for off := uint64(0); off < 200_000; off += 2 {
		r.Receive(a, off, Opaque(1), false)
		r.Receive(a, off+129, Opaque(1), false)
		if off == 2_000 {
			capSteady = cap(r.chunks)
		}
	}
	if cap(r.chunks) != capSteady || capSteady > 3*capAfterFill || r.Next() != 200_000 {
		t.Fatalf("cap grew from %d to %d, then to %d, holding 64 chunks; next %d", capAfterFill, capSteady, cap(r.chunks), r.Next())
	}
}

// FuzzReassembly cuts one stream as the fuzz bytes say — each three
// bytes an offset, a length and whether the arrival carries the FIN when
// it reaches the end. Reassembly must not panic, must match the oracle
// and must deliver every byte once and in order, and after Release its
// arena must hold nothing. Then the same arrivals, followed by the whole
// stream in order as a sender that retransmits everything sends it, must
// also reach EOF, once.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{40, 10, 20, 0, 0, 10, 0, 30, 10, 1})
	f.Add([]byte{200, 100, 50, 1, 0, 255, 0, 10, 90, 0, 60, 60, 0})
	f.Add([]byte{255, 250, 5, 1, 0, 0, 1, 100, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const unit = 16 // stream bytes per fuzz step, so that cuts span opaque stretches
		stream := streamBytes(1 + int(data[0])*unit)
		n := len(stream)
		var as []arrival
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			lo := min(int(b[0])*unit, n)
			hi := min(lo+int(b[1])*unit/2, n)
			as = append(as, cut(stream, lo, hi, hi == n && b[2]&1 == 1))
		}
		r, arena := run(t, stream, as)
		if r.Release(arena); arena.Stats().InUse != 0 {
			t.Fatalf("after Release: arena %+v", arena.Stats())
		}
		for off := 0; off < n; off += 1000 {
			as = append(as, cut(stream, off, min(off+1000, n), off+1000 >= n))
		}
		if r, _ = run(t, stream, as); !r.EOF() || r.Next() != uint64(n) {
			t.Fatalf("EOF %v at %d of %d", r.EOF(), r.Next(), n)
		}
	})
}
