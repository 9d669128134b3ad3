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
// random ones) at random virtual times, then sends FIN. It holds s
// throughout, since its connection may be aborted in between.
func (f *flow) drive(sched *simnet.Scheduler, rng *rand.Rand, s *Stream, start time.Duration) {
	s.Hold()
	var next func()
	next = func() {
		if f.written == len(f.want) {
			s.CloseWrite()
			s.Release()
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

// runSharedPools runs waves waves of conns connections × streams
// streams over one path (impair may be nil), every endpoint on ONE
// Pools, each direction of each stream a flow from mkFlow (up, then
// down, stream by stream). A wave's connections run at once; once they
// drain, both ends close them and the next wave opens its streams in
// the structs they retired. Connection i of a wave is aborted at both
// ends abortAt[i] after the wave starts when that is non-zero (a
// one-sided abort whose CONNECTION_CLOSE is lost leaves an idle peer
// holding its parked bytes for good, which is a live connection, not a
// leak). It checks that every receiver of a surviving connection got
// every supplied byte where it was written, the right number of opaque
// ones, and EOF, and that the payload and extent arenas came out even
// after the drain with no Rewind. It returns those arenas' counters,
// the number of aborts that found bytes in flight, and how many streams
// of later waves reused a struct of an earlier one.
func runSharedPools(t testing.TB, seed int64, impair *simnet.Impairment, waves, conns, streams int, abortAt []time.Duration, mkFlow func(*rand.Rand) *flow) (payloads, extents bufpool.ArenaStats, inFlightAborts, reused int) {
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

	earlier := make(map[*Stream]bool) // stream structs of finished waves
	for wave := 0; wave < waves; wave++ {
		var opened []*Stream
		var ends []*Conn
		up, down := make([][]*flow, conns), make([][]*flow, conns)
		for i := 0; i < conns; i++ {
			i := i
			up[i], down[i] = make([]*flow, streams), make([]*flow, streams)
			for j := 0; j < streams; j++ {
				up[i][j], down[i][j] = mkFlow(rng), mkFlow(rng)
			}
			var srv *Conn
			port := uint16(443 + wave*conns + i)
			if _, err := Listen(server, port, ServerConfig{Config: cfg}, func(c *Conn) {
				srv = c
				ends = append(ends, c)
				c.SetStreamFunc(func(s *Stream) {
					opened = append(opened, s)
					j := s.ID() / 4
					s.SetDataFunc(up[i][j].receive)
					s.finFn = func() { up[i][j].eof = true }
					down[i][j].drive(sched, rng, s, 0)
				})
			}); err != nil {
				t.Fatal(err)
			}
			cli := Dial(client, "server", port, ClientConfig{Config: cfg, ServerName: "server"}, func(c *Conn) {
				for j := 0; j < streams; j++ {
					j := j
					s := c.OpenStream()
					opened = append(opened, s)
					s.SetDataFunc(down[i][j].receive)
					s.finFn = func() { down[i][j].eof = true }
					// Staggered starts: early streams finish, and give their
					// bytes back, while later ones are still to open.
					up[i][j].drive(sched, rng, s, time.Duration(rng.Intn(3_000))*time.Millisecond)
				}
			})
			ends = append(ends, cli)
			if i < len(abortAt) && abortAt[i] > 0 {
				sched.After(abortAt[i], func() {
					for _, c := range []*Conn{cli, srv} {
						if c != nil && c.state != stateClosed && c.bytesInFlight > 0 {
							inFlightAborts++
						}
						if c != nil {
							c.Abort()
						}
					}
				})
			}
		}
		if _, err := sched.Run(); err != nil {
			t.Fatalf("seed %d: scheduler: %v", seed, err)
		}

		for i := 0; i < conns; i++ {
			if i < len(abortAt) && abortAt[i] > 0 {
				continue
			}
			for j := 0; j < streams; j++ {
				for dir, f := range []*flow{up[i][j], down[i][j]} {
					if f.corrupt || f.got != len(f.want) || f.gotOpq != f.opaque || !f.eof {
						t.Fatalf("seed %d wave %d conn %d stream %d dir %d: got %d of %d bytes (%d of %d opaque), corrupt=%v eof=%v",
							seed, wave, i, j, dir, f.got, len(f.want), f.gotOpq, f.opaque, f.corrupt, f.eof)
					}
				}
			}
		}
		for _, s := range opened {
			if earlier[s] {
				reused++
			}
		}
		for _, s := range opened {
			earlier[s] = true
		}
		// Close the wave so its streams retire for the next one.
		for _, c := range ends {
			c.Close()
		}
		if _, err := sched.Run(); err != nil {
			t.Fatalf("seed %d: scheduler: %v", seed, err)
		}
	}
	payloads, extents = pools.payloads.Stats(), pools.extents.Stats()
	if payloads.InUse != 0 || extents.InUse != 0 || payloads.Lent != 0 || extents.Lent != 0 {
		t.Fatalf("seed %d: arenas after the drain: payloads %+v, extents %+v", seed, payloads, extents)
	}
	return payloads, extents, inFlightAborts, reused
}

// TestSharedPoolsExactDelivery is the property packet-owned payloads
// and recycled streams rest on: two waves of 4 connections × 8 streams,
// every endpoint on ONE Pools, each direction of each stream its own
// pattern of up to 600 KB, over bench's lossy profile (Gilbert-Elliott
// 2 % in bursts of four, 2 ms jitter, 1 % reordering), with one
// connection per wave aborted at both ends mid-transfer. Payloads,
// parked copies and extents change hands between streams while others
// are mid-transfer, the second wave runs in the stream structs the
// first one retired, no receiver may ever see a byte that is not its
// own, and afterwards every buffer is back with no Rewind, including
// what the aborted connections had in flight. It has teeth —
// each of these fails a seed: fill copying the extents one offset off;
// packet.Release keeping the payload; receive parking the packet's
// slice instead of a copy; a stream giving its extents back once its
// FIN is sent rather than acknowledged.
func TestSharedPoolsExactDelivery(t *testing.T) {
	const waves, conns, streams, maxLen = 2, 4, 8, 600 << 10
	inFlight := 0
	for seed := int64(1); seed <= 6; seed++ {
		abortAt := []time.Duration{time.Duration(200+seed*250) * time.Millisecond}
		payloads, extents, n, reused := runSharedPools(t, seed, lossyPath(0.02, 0.01), waves, conns, streams, abortAt, func(rng *rand.Rand) *flow {
			return newFlow(rng, maxLen)
		})
		if payloads.News >= payloads.Gets || extents.News >= extents.Gets {
			t.Fatalf("seed %d: buffers never reused: payloads %+v, extents %+v", seed, payloads, extents)
		}
		if reused == 0 {
			t.Fatalf("seed %d: the second wave reused no stream struct of the first", seed)
		}
		inFlight += n
	}
	if inFlight == 0 {
		t.Fatal("no abort found bytes in flight")
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

// TestOpaqueTransferTakesNoPayloadBuffer sends 2 MB on one stream over
// bench's lossy profile as short supplied heads — a 10-byte write, then
// up to 64 bytes more at the front of each opaque body — and 20 KB
// opaque bodies. Only frames that hold a supplied byte take a payload
// buffer, and only such frames arriving beyond a gap a parked copy (the
// payloads arena serves both): the count scales with the heads, not
// with the ≈ 1 750 frames the bytes fill.
func TestOpaqueTransferTakesNoPayloadBuffer(t *testing.T) {
	const heads, body = 100, 20 << 10
	for seed := int64(1); seed <= 3; seed++ {
		k := 0
		payloads, _, _, _ := runSharedPools(t, seed, lossyPath(0.02, 0.01), 1, 1, 1, nil, func(rng *rand.Rand) *flow {
			k++
			if k == 2 { // the response direction: one byte
				return &flow{want: []byte{1}, pieces: []int{1}}
			}
			fl := &flow{want: make([]byte, heads*(10+body))}
			for i := 0; i < heads; i++ {
				fl.pieces = append(fl.pieces, 10, body)
			}
			rng.Read(fl.want)
			return fl
		})
		if payloads.Gets > 2*heads {
			t.Fatalf("seed %d: %d heads took %d payload and reassembly buffers", seed, heads, payloads.Gets)
		}
	}
}

// FuzzTransfer lets the fuzzer pick the seed, the loss and reorder rates,
// the piece sizes of two waves of 2 connections × 3 streams on one Pools,
// and when (in 10 ms steps, 0 for never) each wave's second connection
// is aborted; the assertions are TestSharedPoolsExactDelivery's. It is tcpsim's
// FuzzTransfer for packet-owned payloads, the per-stream release rule
// and the receive path's gap buffer.
func FuzzTransfer(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(10), uint8(0), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 255, 255, 40, 255, 9, 255, 255})
	f.Add(uint64(7), uint8(0), uint8(0), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2022), uint8(100), uint8(50), uint8(30), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint64(3), uint8(0), uint8(100), uint8(0), []byte{40, 0, 255, 1})
	f.Add(uint64(4), uint8(50), uint8(0), uint8(12), []byte{})
	f.Add(uint64(5), uint8(20), uint8(10), uint8(8), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed uint64, lossPermille, reorderPermille, abortTenMs uint8, sizes []byte) {
		const conns, streams = 2, 3
		if len(sizes) > 96 {
			sizes = sizes[:96]
		}
		// Deal the sizes round the twenty-four directions; a direction
		// left without any sends one byte, then FIN.
		plans := make([][]int, 2*2*conns*streams)
		for i, b := range sizes {
			plans[i%len(plans)] = append(plans[i%len(plans)], 1+int(b)*257)
		}
		var impair *simnet.Impairment
		if loss, reorder := float64(lossPermille%101)/1000, float64(reorderPermille%101)/1000; loss > 0 || reorder > 0 {
			impair = lossyPath(loss, reorder)
		}
		abortAt := []time.Duration{0, time.Duration(abortTenMs) * 10 * time.Millisecond}
		k := 0
		runSharedPools(t, int64(seed>>1), impair, 2, conns, streams, abortAt, func(rng *rand.Rand) *flow {
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
