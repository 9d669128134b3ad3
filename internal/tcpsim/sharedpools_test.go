package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// lossyPath is bench's lossy profile: Gilbert-Elliott loss in bursts of
// four, 2 ms jitter, 1 % reordering.
func lossyPath(avgLoss float64) *simnet.Impairment {
	im := simnet.GilbertElliott(avgLoss, 4)
	im.JitterMax = 2 * time.Millisecond
	im.ReorderRate = 0.01
	im.ReorderDelay = 2 * time.Millisecond
	return &im
}

// span is a range [off, end) of stream offsets.
type span struct{ off, end int }

// flow is one direction of one connection: a byte pattern of its own,
// the pieces it is written in, and what the far end has seen of it.
// Pieces alternate between Write and WriteOpaque; a WriteOpaque piece
// supplies a short head of the pattern and leaves the rest opaque.
type flow struct {
	want     []byte
	pieces   []int
	heads    []int  // supplied bytes at the front of each piece
	supplied []span // the stream ranges a writer specified, in order
	opaque   int    // opaque bytes written
	written  int
	got      int
	gotOpq   int // opaque bytes received
	next     int // first span the receiver has not passed
	corrupt  bool
	eof      bool
}

func newFlow(rng *rand.Rand, pieces []int) *flow {
	f := &flow{pieces: pieces, heads: make([]int, len(pieces))}
	off := 0
	for i, n := range pieces {
		h := n
		if i%2 == 1 {
			h = rng.Intn(min(n, 64) + 1)
		}
		f.heads[i] = h
		if h > 0 {
			if k := len(f.supplied) - 1; k >= 0 && f.supplied[k].end == off {
				f.supplied[k].end += h
			} else {
				f.supplied = append(f.supplied, span{off, off + h})
			}
		}
		f.opaque += n - h
		off += n
	}
	f.want = make([]byte, off)
	rng.Read(f.want)
	return f
}

// receive checks every supplied byte of p at its stream offset and
// counts the opaque ones, whose contents are arbitrary.
func (f *flow) receive(p []byte) {
	start, end := f.got, f.got+len(p)
	f.got = end
	if end > len(f.want) {
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

// drive writes the flow's pieces on c at random virtual times, then
// closes c's sending side.
func (f *flow) drive(sched *simnet.Scheduler, rng *rand.Rand, c *Conn) {
	i := 0
	var next func()
	next = func() {
		if i == len(f.pieces) {
			c.Close()
			return
		}
		n, h := f.pieces[i], f.heads[i]
		if i%2 == 0 {
			c.Write(f.want[f.written : f.written+n])
		} else {
			c.WriteOpaque(f.want[f.written:f.written+h], n-h)
		}
		i++
		f.written += n
		sched.After(time.Duration(rng.Intn(8_000))*time.Microsecond, next)
	}
	sched.After(time.Duration(rng.Intn(20_000))*time.Microsecond, next)
}

// runSharedPools runs len(plans) connections over one impaired path,
// every endpoint on ONE Pools and one wire arena, each direction writing
// plans[i][dir] pieces of its own pattern. They run in waves equal
// groups: a wave's connections run at once, and the next wave dials
// once every one of them has torn down, so it draws the conn structs
// they retired. It checks that every receiver got every supplied byte
// where it was written and the right number of opaque ones, and that
// the extent, payload and reassembly arenas came out even. It returns
// those arenas' counters and how many conns of later waves reused a
// struct of an earlier one.
func runSharedPools(t testing.TB, seed int64, impair *simnet.Impairment, plans [][2][]int, waves int) (payloads, extents, recv bufpool.ArenaStats, reused int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec
	sched := &simnet.Scheduler{MaxEvents: 200_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 200e6, Impair: impair}
	}
	net := simnet.NewNetwork(sched, pf, seqrand.New(uint64(seed)))
	client, server := net.AddHost("client"), net.AddHost("server")

	pools, arena := &Pools{}, &bufpool.Arena{}
	// Exact delivery needs every connection to survive the loss.
	cfg := Config{Pools: pools, Arena: arena, MaxRetries: 64}

	type pair struct{ up, down *flow }
	pairs := make([]pair, len(plans))
	earlier := make(map[*Conn]bool) // conn structs of finished waves
	per := (len(plans) + waves - 1) / waves
	for lo := 0; lo < len(plans); lo += per {
		var wave []*Conn
		for i := lo; i < min(lo+per, len(plans)); i++ {
			pr := pair{up: newFlow(rng, plans[i][0]), down: newFlow(rng, plans[i][1])}
			pairs[i] = pr
			if _, err := Listen(server, uint16(1000+i), cfg, func(c *Conn) {
				wave = append(wave, c)
				c.SetDataFunc(pr.up.receive)
				c.SetCloseFunc(func(err error) { pr.up.eof = pr.up.eof || err == nil })
				pr.down.drive(sched, rng, c)
			}); err != nil {
				t.Fatal(err)
			}
			c := Dial(client, "server", uint16(1000+i), cfg, nil)
			wave = append(wave, c)
			c.SetDataFunc(pr.down.receive)
			c.SetCloseFunc(func(err error) { pr.down.eof = pr.down.eof || err == nil })
			pr.up.drive(sched, rng, c) // early pieces queue behind the handshake
		}
		if _, err := sched.Run(); err != nil {
			t.Fatalf("seed %d: scheduler: %v", seed, err)
		}
		for _, c := range wave {
			if earlier[c] {
				reused++
			}
		}
		for _, c := range wave {
			earlier[c] = true
		}
	}

	for i, pr := range pairs {
		for dir, f := range []*flow{pr.up, pr.down} {
			if f.corrupt || f.got != len(f.want) || f.gotOpq != f.opaque || !f.eof {
				t.Fatalf("seed %d conn %d dir %d: got %d of %d bytes (%d of %d opaque), corrupt=%v eof=%v",
					seed, i, dir, f.got, len(f.want), f.gotOpq, f.opaque, f.corrupt, f.eof)
			}
		}
	}
	if recv = arena.Stats(); recv.InUse != 0 || recv.Lent != 0 {
		t.Fatalf("seed %d: wire arena after the drain: %+v", seed, recv)
	}
	payloads, extents = pools.payloads.Stats(), pools.extents.Stats()
	if payloads.InUse != 0 || extents.InUse != 0 || payloads.Lent != 0 || extents.Lent != 0 {
		t.Fatalf("seed %d: arenas after the drain: payloads %+v, extents %+v", seed, payloads, extents)
	}
	return payloads, extents, recv, reused
}

func randomPieces(rng *rand.Rand, maxLen int) []int {
	var pieces []int
	for left := 1 + rng.Intn(maxLen); left > 0; {
		n := 1 + rng.Intn(48<<10)
		if n > left {
			n = left
		}
		pieces = append(pieces, n)
		left -= n
	}
	return pieces
}

// TestSharedPoolsExactDelivery is the property the extent window,
// segment-owned payloads and recycled conns rest on: extents and payload
// buffers change hands between connections mid-transfer, a second wave
// of 24 connections runs in the conn structs the first wave retired,
// every supplied byte still arrives where it was written, and every
// buffer comes back. It has teeth — each of these fails a seed:
// Extents.Payload copying an extent one offset off; Release not
// returning the payload; Extents.Trim giving back an extent that
// straddles sndUna.
func TestSharedPoolsExactDelivery(t *testing.T) {
	const conns, waves, maxLen = 24, 2, 600 << 10
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed)) //nolint:gosec
		plans := make([][2][]int, conns*waves)
		for i := range plans {
			plans[i] = [2][]int{randomPieces(rng, maxLen), randomPieces(rng, maxLen)}
		}
		payloads, extents, _, reused := runSharedPools(t, seed, lossyPath(0.02), plans, waves)
		if payloads.News >= payloads.Gets || extents.News >= extents.Gets {
			t.Fatalf("seed %d: buffers never reused: payloads %+v, extents %+v", seed, payloads, extents)
		}
		if reused == 0 {
			t.Fatalf("seed %d: the second wave reused no conn struct of the first", seed)
		}
	}
}

// TestOpaqueTransferTakesNoPayloadBuffer sends 2 MB over bench's lossy
// profile as short supplied heads — a 10-byte write, then up to 64 bytes
// more at the front of each opaque body — and 20 KB opaque bodies. Only
// segments that hold a supplied byte take a payload buffer, and only
// such segments arriving beyond a gap a reassembly copy: both counts
// scale with the heads, not with the ≈ 1 450 segments the bytes fill.
func TestOpaqueTransferTakesNoPayloadBuffer(t *testing.T) {
	const heads, body = 100, 20 << 10
	var pieces []int
	for i := 0; i < heads; i++ {
		pieces = append(pieces, 10, body)
	}
	for seed := int64(1); seed <= 3; seed++ {
		payloads, _, recv, _ := runSharedPools(t, seed, lossyPath(0.02), [][2][]int{{pieces, {1}}}, 1)
		if payloads.Gets > 2*heads || recv.Gets > heads/2 {
			t.Fatalf("seed %d: %d heads took %d payload and %d reassembly buffers", seed, heads, payloads.Gets, recv.Gets)
		}
	}
}

// FuzzTransfer lets the fuzzer pick the seed, the loss rate and the
// piece sizes of two waves of four concurrent connections on one Pools;
// the assertions are TestSharedPoolsExactDelivery's.
func FuzzTransfer(f *testing.F) {
	f.Add(uint64(1), uint8(20), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 255, 255, 40, 255, 9, 255, 255})
	f.Add(uint64(7), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2022), uint8(100), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint64(3), uint8(50), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, lossPermille uint8, sizes []byte) {
		const conns = 8
		if len(sizes) > 96 {
			sizes = sizes[:96]
		}
		// Deal the sizes round the sixteen directions; a direction left
		// without any still opens, closes and must see EOF.
		plans := make([][2][]int, conns)
		for i, b := range sizes {
			dir := &plans[i%conns][i/conns%2]
			*dir = append(*dir, 1+int(b)*257)
		}
		var impair *simnet.Impairment
		if lossPermille > 0 {
			impair = lossyPath(float64(lossPermille%101) / 1000)
		}
		runSharedPools(t, int64(seed>>1), impair, plans, 2)
	})
}
