package quicsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// flow is one direction of one stream: a byte pattern of its own and
// what the far end has seen of it.
type flow struct {
	want    []byte
	written int
	got     int
	corrupt bool
	eof     bool
}

func newFlow(rng *rand.Rand, maxLen int) *flow {
	f := &flow{want: make([]byte, 1+rng.Intn(maxLen))}
	rng.Read(f.want)
	return f
}

func (f *flow) receive(p []byte) {
	if f.got+len(p) > len(f.want) || !bytes.Equal(p, f.want[f.got:f.got+len(p)]) {
		f.corrupt = true
	}
	f.got += len(p)
}

// drive writes the flow on s, starting after start, in random pieces at
// random virtual times, then sends FIN.
func (f *flow) drive(sched *simnet.Scheduler, rng *rand.Rand, s *Stream, start time.Duration) {
	var next func()
	next = func() {
		if f.written == len(f.want) {
			s.CloseWrite()
			return
		}
		n := 1 + rng.Intn(48<<10)
		if left := len(f.want) - f.written; n > left {
			n = left
		}
		s.Write(f.want[f.written : f.written+n])
		f.written += n
		sched.After(time.Duration(rng.Intn(8_000))*time.Microsecond, next)
	}
	sched.After(start, next)
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
	lossy := simnet.GilbertElliott(0.02, 4)
	lossy.JitterMax = 2 * time.Millisecond
	lossy.ReorderRate = 0.01
	lossy.ReorderDelay = 2 * time.Millisecond

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec
		sched := &simnet.Scheduler{MaxEvents: 200_000_000}
		pf := func(src, dst simnet.Addr) simnet.PathProps {
			return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 200e6, Impair: &lossy}
		}
		net := simnet.NewNetwork(sched, pf, seqrand.New(uint64(seed)))
		client, server := net.AddHost("client"), net.AddHost("server")

		pools := &Pools{}
		// Exact delivery needs every connection to survive the loss.
		cfg := Config{Pools: pools, MaxPTOs: 64}

		var up, down [conns][streams]*flow
		for i := 0; i < conns; i++ {
			i := i
			for j := 0; j < streams; j++ {
				up[i][j], down[i][j] = newFlow(rng, maxLen), newFlow(rng, maxLen)
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
					if f.corrupt || f.got != len(f.want) || !f.eof {
						t.Fatalf("seed %d conn %d stream %d dir %d: got %d of %d bytes, corrupt=%v eof=%v",
							seed, i, j, dir, f.got, len(f.want), f.corrupt, f.eof)
					}
				}
			}
		}
		if st := pools.pends.Stats(); st.InUse != 0 || st.News >= st.Gets {
			t.Fatalf("seed %d: send arena after the drain: %+v (want InUse 0 and News < Gets)", seed, st)
		}
	}
}
