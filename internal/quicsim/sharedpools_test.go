package quicsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// span is a range [off, end) of stream offsets.
type span struct{ off, end int }

// flow is one direction of one stream: a byte pattern of its own, the
// sizes it is written in (random when nil), and what the far end has
// seen of it. Pieces alternate between Write and WriteOpaque; a
// WriteOpaque piece supplies a short head of the pattern and leaves the
// rest opaque.
type flow struct {
	want     []byte
	pieces   []int
	supplied []span // the stream ranges a writer specified, in order
	opaque   int    // opaque bytes written
	writes   int
	written  int
	got      int
	gotOpq   int // opaque bytes received
	next     int // first span the receiver has not passed
	corrupt  bool
	eof      bool
}

func newFlow(rng *rand.Rand, maxLen int) *flow {
	f := &flow{want: make([]byte, 1+rng.Intn(maxLen))}
	rng.Read(f.want)
	return f
}

// receive checks every supplied byte of p at its stream offset and
// counts the opaque ones, whose contents are arbitrary.
func (f *flow) receive(p []byte) {
	start, end := f.got, f.got+len(p)
	f.got = end
	if end > f.written {
		f.corrupt = true
		return
	}
	for f.next < len(f.supplied) && f.supplied[f.next].end <= start {
		f.next++
	}
	covered := 0
	for _, sp := range f.supplied[f.next:] {
		if sp.off >= end {
			break
		}
		lo, hi := max(sp.off, start), min(sp.end, end)
		if !bytes.Equal(p[lo-start:hi-start], f.want[lo:hi]) {
			f.corrupt = true
		}
		covered += hi - lo
	}
	f.gotOpq += len(p) - covered
}

// drive writes the flow on s, starting after start, in its pieces (or
// random ones) at random virtual times, then sends FIN.
func (f *flow) drive(sched *simnet.Scheduler, rng *rand.Rand, s *Stream, start time.Duration) {
	var next func()
	next = func() {
		if f.written == len(f.want) {
			s.CloseWrite()
			return
		}
		var n int
		if len(f.pieces) > 0 {
			n, f.pieces = f.pieces[0], f.pieces[1:]
		} else {
			n = 1 + rng.Intn(48<<10)
		}
		if left := len(f.want) - f.written; n > left {
			n = left
		}
		h := n
		if f.writes%2 == 1 {
			h = rng.Intn(min(n, 64) + 1)
		}
		f.writes++
		if k := len(f.supplied) - 1; k >= 0 && f.supplied[k].end == f.written {
			f.supplied[k].end += h
		} else if h > 0 {
			f.supplied = append(f.supplied, span{f.written, f.written + h})
		}
		f.opaque += n - h
		if h == n {
			s.Write(f.want[f.written : f.written+n])
		} else {
			s.WriteOpaque(f.want[f.written:f.written+h], n-h)
		}
		f.written += n
		sched.After(time.Duration(rng.Intn(8_000))*time.Microsecond, next)
	}
	sched.After(start, next)
}

// runSharedPools runs conns connections × streams streams at once over
// one path (impair may be nil), every endpoint on ONE Pools, each
// direction of each stream a flow from mkFlow (up, then down, stream by
// stream), and checks that every receiver got every supplied byte where
// it was written, the right number of opaque ones, and EOF, and that the
// send arena, whose counters it returns, came out even although no
// connection closed.
func runSharedPools(t testing.TB, seed int64, impair *simnet.Impairment, conns, streams int, mkFlow func(*rand.Rand) *flow) bufpool.ArenaStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec
	sched := &simnet.Scheduler{MaxEvents: 200_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 200e6, Impair: impair}
	}
	net := simnet.NewNetwork(sched, pf, seqrand.New(uint64(seed)))
	client, server := net.AddHost("client"), net.AddHost("server")

	pools := &Pools{}
	// Exact delivery needs every connection to survive the loss.
	cfg := Config{Pools: pools, MaxPTOs: 64}

	up, down := make([][]*flow, conns), make([][]*flow, conns)
	for i := 0; i < conns; i++ {
		i := i
		up[i], down[i] = make([]*flow, streams), make([]*flow, streams)
		for j := 0; j < streams; j++ {
			up[i][j], down[i][j] = mkFlow(rng), mkFlow(rng)
		}
		if _, err := Listen(server, uint16(443+i), ServerConfig{Config: cfg}, func(c *Conn) {
			c.SetStreamFunc(func(s *Stream) {
				j := s.ID() / 4
				s.SetDataFunc(up[i][j].receive)
				s.SetFinFunc(func() { up[i][j].eof = true })
				down[i][j].drive(sched, rng, s, 0)
			})
		}); err != nil {
			t.Fatal(err)
		}
		Dial(client, "server", uint16(443+i), ClientConfig{Config: cfg, ServerName: "server"}, func(c *Conn) {
			for j := 0; j < streams; j++ {
				j := j
				s := c.OpenStream()
				s.SetDataFunc(down[i][j].receive)
				s.SetFinFunc(func() { down[i][j].eof = true })
				// Staggered starts: early streams finish, and give their
				// arrays back, while later ones are still to open.
				up[i][j].drive(sched, rng, s, time.Duration(rng.Intn(3_000))*time.Millisecond)
			}
		})
	}
	if _, err := sched.Run(); err != nil {
		t.Fatalf("seed %d: scheduler: %v", seed, err)
	}

	for i := 0; i < conns; i++ {
		for j := 0; j < streams; j++ {
			for dir, f := range []*flow{up[i][j], down[i][j]} {
				if f.corrupt || f.got != len(f.want) || f.gotOpq != f.opaque || !f.eof {
					t.Fatalf("seed %d conn %d stream %d dir %d: got %d of %d bytes (%d of %d opaque), corrupt=%v eof=%v",
						seed, i, j, dir, f.got, len(f.want), f.gotOpq, f.opaque, f.corrupt, f.eof)
				}
			}
		}
	}
	st := pools.pends.Stats()
	if st.InUse != 0 {
		t.Fatalf("seed %d: send arena after the drain: %+v", seed, st)
	}
	return st
}

// TestSharedPoolsExactDelivery is the property per-stream release rests
// on: 4 connections × 8 streams, every endpoint on ONE Pools, each
// direction of each stream its own pattern of up to 600 KB, over bench's
// lossy profile (Gilbert-Elliott 2 % in bursts of four, 2 ms jitter, 1 %
// reordering). Streams start and finish at different times, so send
// arrays go back to the shared arena and out again while other streams
// are mid-transfer, and no receiver may ever see a byte that is not its
// own; afterwards every array is back although no connection closed,
// and arrays were reused. It has teeth — release a stream once its FIN
// is sent and half its bytes are acknowledged (frameAcked: s.finSent &&
// s.acked >= len(s.pend)/2) and retransmissions and parked chunks read
// recycled memory: the test fails on seed 1.
func TestSharedPoolsExactDelivery(t *testing.T) {
	const conns, streams, maxLen = 4, 8, 600 << 10
	for seed := int64(1); seed <= 6; seed++ {
		st := runSharedPools(t, seed, lossyPath(0.02, 0.01), conns, streams, func(rng *rand.Rand) *flow {
			return newFlow(rng, maxLen)
		})
		if st.News >= st.Gets {
			t.Fatalf("seed %d: send arrays never reused: %+v (want News < Gets)", seed, st)
		}
	}
}

// lossyPath is Gilbert-Elliott loss at avgLoss in bursts of four with
// 2 ms jitter, and reorder of the packets held back 2 ms; bench's lossy
// profile is lossyPath(0.02, 0.01).
func lossyPath(avgLoss, reorder float64) *simnet.Impairment {
	im := simnet.GilbertElliott(avgLoss, 4)
	im.JitterMax = 2 * time.Millisecond
	im.ReorderRate = reorder
	im.ReorderDelay = 2 * time.Millisecond
	return &im
}

// FuzzTransfer lets the fuzzer pick the seed, the loss and reorder rates
// and the piece sizes of 2 connections × 3 streams on one Pools; the
// assertions are TestSharedPoolsExactDelivery's. It is tcpsim's
// FuzzTransfer for the per-stream release rule and the receive path's
// gap buffer.
func FuzzTransfer(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(10), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 255, 255, 40, 255, 9, 255, 255})
	f.Add(uint64(7), uint8(0), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2022), uint8(100), uint8(50), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint64(3), uint8(0), uint8(100), []byte{40, 0, 255, 1})
	f.Add(uint64(4), uint8(50), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, lossPermille, reorderPermille uint8, sizes []byte) {
		const conns, streams = 2, 3
		if len(sizes) > 96 {
			sizes = sizes[:96]
		}
		// Deal the sizes round the twelve directions; a direction left
		// without any sends one byte, then FIN.
		plans := make([][]int, 2*conns*streams)
		for i, b := range sizes {
			plans[i%len(plans)] = append(plans[i%len(plans)], 1+int(b)*257)
		}
		var impair *simnet.Impairment
		if loss, reorder := float64(lossPermille%101)/1000, float64(reorderPermille%101)/1000; loss > 0 || reorder > 0 {
			impair = lossyPath(loss, reorder)
		}
		k := 0
		runSharedPools(t, int64(seed>>1), impair, conns, streams, func(rng *rand.Rand) *flow {
			pieces := plans[k]
			k++
			n := 0
			for _, p := range pieces {
				n += p
			}
			fl := &flow{want: make([]byte, max(n, 1)), pieces: pieces}
			rng.Read(fl.want)
			return fl
		})
	})
}
