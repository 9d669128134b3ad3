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

// flow is one direction of one connection: a byte pattern of its own,
// the sizes it is written in, and what the far end has seen of it.
type flow struct {
	want    []byte
	pieces  []int
	written int
	got     int
	corrupt bool
	eof     bool
}

func newFlow(rng *rand.Rand, pieces []int) *flow {
	n := 0
	for _, p := range pieces {
		n += p
	}
	f := &flow{want: make([]byte, n), pieces: pieces}
	rng.Read(f.want)
	return f
}

func (f *flow) receive(p []byte) {
	if f.got+len(p) > len(f.want) || !bytes.Equal(p, f.want[f.got:f.got+len(p)]) {
		f.corrupt = true
	}
	f.got += len(p)
}

// drive writes the flow's pieces on c at random virtual times, then
// closes c's sending side.
func (f *flow) drive(sched *simnet.Scheduler, rng *rand.Rand, c *Conn) {
	var next func()
	next = func() {
		if len(f.pieces) == 0 {
			c.Close()
			return
		}
		n := f.pieces[0]
		f.pieces = f.pieces[1:]
		c.Write(f.want[f.written : f.written+n])
		f.written += n
		sched.After(time.Duration(rng.Intn(8_000))*time.Microsecond, next)
	}
	sched.After(time.Duration(rng.Intn(20_000))*time.Microsecond, next)
}

// runSharedPools runs len(plans) connections at once over one impaired
// path, every endpoint on ONE Pools and one wire arena, each direction
// writing plans[i][dir] pieces of its own pattern, and checks that every
// receiver got exactly its bytes and that the send arena, whose counters
// it returns, came out even.
func runSharedPools(t testing.TB, seed int64, impair *simnet.Impairment, plans [][2][]int) bufpool.ArenaStats {
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
	for i, plan := range plans {
		pr := pair{up: newFlow(rng, plan[0]), down: newFlow(rng, plan[1])}
		pairs[i] = pr
		if _, err := Listen(server, uint16(1000+i), cfg, func(c *Conn) {
			c.SetDataFunc(pr.up.receive)
			c.SetCloseFunc(func(err error) { pr.up.eof = err == nil })
			pr.down.drive(sched, rng, c)
		}); err != nil {
			t.Fatal(err)
		}
		c := Dial(client, "server", uint16(1000+i), cfg, nil)
		c.SetDataFunc(pr.down.receive)
		c.SetCloseFunc(func(err error) { pr.down.eof = err == nil })
		pr.up.drive(sched, rng, c) // early pieces queue behind the handshake
	}
	if _, err := sched.Run(); err != nil {
		t.Fatalf("seed %d: scheduler: %v", seed, err)
	}

	for i, pr := range pairs {
		for dir, f := range []*flow{pr.up, pr.down} {
			if f.corrupt || f.got != len(f.want) || !f.eof {
				t.Fatalf("seed %d conn %d dir %d: got %d of %d bytes, corrupt=%v eof=%v",
					seed, i, dir, f.got, len(f.want), f.corrupt, f.eof)
			}
		}
	}
	if st := arena.Stats(); st.InUse != 0 {
		t.Fatalf("seed %d: wire arena after the drain: %+v", seed, st)
	}
	st := pools.sendBufs.Stats()
	if st.InUse != 0 {
		t.Fatalf("seed %d: send arena after the drain: %+v", seed, st)
	}
	return st
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

// TestSharedPoolsExactDelivery is the property the sliding send window
// rests on: arrays go back to the shared arena while other connections
// are mid-transfer, and no receiver ever sees a byte that is not its
// own. It has teeth — with makeRoom Putting the outgrown array at once
// instead of parking it until sndUna passes its mark, segments still in
// flight alias an array another connection is already writing, and the
// test fails on seed 1.
func TestSharedPoolsExactDelivery(t *testing.T) {
	const conns, maxLen = 24, 600 << 10
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed)) //nolint:gosec
		plans := make([][2][]int, conns)
		for i := range plans {
			plans[i] = [2][]int{randomPieces(rng, maxLen), randomPieces(rng, maxLen)}
		}
		if st := runSharedPools(t, seed, lossyPath(0.02), plans); st.News >= st.Gets {
			t.Fatalf("seed %d: send arrays never reused: %+v", seed, st)
		}
	}
}

// FuzzTransfer lets the fuzzer pick the seed, the loss rate and the
// piece sizes of four concurrent connections on one Pools; the
// assertions are TestSharedPoolsExactDelivery's.
func FuzzTransfer(f *testing.F) {
	f.Add(uint64(1), uint8(20), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 255, 255, 40, 255, 9, 255, 255})
	f.Add(uint64(7), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(2022), uint8(100), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint64(3), uint8(50), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, lossPermille uint8, sizes []byte) {
		const conns = 4
		if len(sizes) > 96 {
			sizes = sizes[:96]
		}
		// Deal the sizes round the eight directions; a direction left
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
		runSharedPools(t, int64(seed>>1), impair, plans)
	})
}
