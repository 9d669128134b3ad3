package bytestream

import (
	"testing"

	"h3cdn/internal/bufpool"
)

// BenchmarkReassemblyStallAllocs stalls many streams at once on one warm
// arena, as a lossy visit does: every op, each of 64 streams, zeroed as a
// recycled transport struct is, parks 8 chunks behind a hole, then every
// hole fills and drains. A chunk array is lent by the arena while its
// chunks are parked and goes back with the last pop, so a warm op
// allocates nothing; BENCH_baseline.json records it at 0.
func BenchmarkReassemblyStallAllocs(b *testing.B) {
	const streams, parked, n = 64, 8, 100
	a := &bufpool.Arena{}
	rs := make([]Reassembly, streams)
	data := make([]byte, n)
	op := func() {
		for i := range rs {
			rs[i] = Reassembly{}
			for k := 1; k <= parked; k++ {
				p := data
				if k%2 == 0 {
					p = Opaque(n)
				}
				rs[i].Receive(a, uint64(k*n), p, false)
			}
		}
		for i := range rs {
			rs[i].Receive(a, 0, data, false)
		}
	}
	op()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	if st := a.Stats(); st.InUse != 0 || st.Lent != 0 {
		b.Fatalf("arena after the drains: %+v", st)
	}
}
