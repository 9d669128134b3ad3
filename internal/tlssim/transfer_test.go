package tlssim

import (
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
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

// tlsFlow is one direction of a TLS connection: a byte pattern written
// in pieces, odd pieces as a short supplied head and the rest opaque,
// and what the far end has seen of it.
type tlsFlow struct {
	want     []byte
	pieces   []int
	heads    []int
	supplied []bool // which stream bytes a writer specified
	opaque   int
	written  int
	got      int
	gotOpq   int
	corrupt  bool
}

func newTLSFlow(rng *rand.Rand, pieces []int) *tlsFlow {
	f := &tlsFlow{pieces: pieces, heads: make([]int, len(pieces))}
	for i, n := range pieces {
		h := n
		if i%2 == 1 {
			h = rng.Intn(min(n, 64) + 1)
		}
		f.heads[i] = h
		f.opaque += n - h
		f.supplied = append(f.supplied, make([]bool, n)...)
		for j := len(f.supplied) - n; j < len(f.supplied)-n+h; j++ {
			f.supplied[j] = true
		}
	}
	f.want = make([]byte, len(f.supplied))
	rng.Read(f.want)
	return f
}

// receive checks every supplied byte of p at its stream offset and
// counts the opaque ones.
func (f *tlsFlow) receive(p []byte) {
	start := f.got
	f.got += len(p)
	if f.got > len(f.want) {
		f.corrupt = true
		return
	}
	for i, b := range p {
		if !f.supplied[start+i] {
			f.gotOpq++
		} else if b != f.want[start+i] {
			f.corrupt = true
		}
	}
}

func (f *tlsFlow) done() bool { return f.written == len(f.want) }

// drive writes the flow's pieces on c at random virtual times, from
// before the handshake on; then calls closeIfDone.
func (f *tlsFlow) drive(sched *simnet.Scheduler, rng *rand.Rand, c *Conn, closeIfDone func()) {
	i := 0
	var next func()
	next = func() {
		if i == len(f.pieces) {
			closeIfDone()
			return
		}
		n, h := f.pieces[i], f.heads[i]
		c.WriteOpaque(f.want[f.written:f.written+h], n-h)
		i++
		f.written += n
		sched.After(time.Duration(rng.Intn(8_000))*time.Microsecond, next)
	}
	sched.After(time.Duration(rng.Intn(2_000))*time.Microsecond, next)
}

// runTLSTransfer runs one TLS connection over a tcpsim pair on an
// impaired path, both ends on one tcpsim.Pools, one wire arena and one
// TLS receive arena, each direction writing plans[dir]. Every supplied
// byte must arrive at its offset, the opaque count must match, and the
// receive arena, the wire arena and the segment payload arena must come
// out even.
func runTLSTransfer(t testing.TB, seed int64, impair *simnet.Impairment, plans [2][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec
	sched := &simnet.Scheduler{MaxEvents: 200_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 200e6, Impair: impair}
	}
	net := simnet.NewNetwork(sched, pf, seqrand.New(uint64(seed)))
	clientHost, serverHost := net.AddHost("client"), net.AddHost("server")
	pools, wire, recv := &tcpsim.Pools{}, &bufpool.Arena{}, &bufpool.Arena{}
	tcpCfg := tcpsim.Config{Pools: pools, Arena: wire, MaxRetries: 64}

	up, down := newTLSFlow(rng, plans[0]), newTLSFlow(rng, plans[1])
	// An end closes once it is established (Close drops writes still
	// queued behind the handshake), has written its flow and has
	// received the peer's.
	closer := func(c **Conn, out, in *tlsFlow) func() {
		return func() {
			if (*c).established && out.done() && in.got == len(in.want) {
				(*c).Close()
			}
		}
	}
	if _, err := tcpsim.Listen(serverHost, 443, tcpCfg, func(tc *tcpsim.Conn) {
		var s *Conn
		closeIfDone := closer(&s, down, up)
		s = Server(tc, ServerConfig{Sched: sched, Arena: wire, RecvArena: recv}, func(error) { closeIfDone() })
		s.SetDataFunc(func(p []byte) { up.receive(p); closeIfDone() })
		down.drive(sched, rng, s, closeIfDone)
	}); err != nil {
		t.Fatal(err)
	}
	var c *Conn
	closeIfDone := closer(&c, up, down)
	tc := tcpsim.Dial(clientHost, "server", 443, tcpCfg, nil)
	c = Client(tc, ClientConfig{Sched: sched, ServerName: "edge.example", Arena: wire, RecvArena: recv}, func(error) { closeIfDone() })
	c.SetDataFunc(func(p []byte) { down.receive(p); closeIfDone() })
	up.drive(sched, rng, c, closeIfDone)
	if _, err := sched.Run(); err != nil {
		t.Fatalf("seed %d: scheduler: %v", seed, err)
	}

	for dir, f := range []*tlsFlow{up, down} {
		if f.corrupt || f.got != len(f.want) || f.gotOpq != f.opaque {
			t.Fatalf("seed %d dir %d: got %d of %d bytes (%d of %d opaque), corrupt=%v",
				seed, dir, f.got, len(f.want), f.gotOpq, f.opaque, f.corrupt)
		}
	}
	for name, st := range map[string]bufpool.ArenaStats{"TLS receive": recv.Stats(), "wire": wire.Stats(), "segment payload": pools.PayloadStats()} {
		if st.InUse != 0 {
			t.Fatalf("seed %d: %s arena after the drain: %+v", seed, name, st)
		}
	}
}

// FuzzTLSTransfer: TLS over lossy TCP delivers exactly. The fuzzer picks
// the seed, the loss rate and the piece sizes of both directions; the
// pieces mix fully supplied writes with short heads and long opaque
// bodies, so opaque runs, mixed segments and record boundaries meet in
// the TLS carry under loss and reordering. The assertions are
// runTLSTransfer's.
func FuzzTLSTransfer(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 40, 255, 9})
	f.Add(uint64(2022), uint8(20), []byte{255, 3, 90, 255, 255, 0, 17, 200, 255, 40, 255, 9})
	f.Add(uint64(7), uint8(20), []byte{1, 2, 3, 4, 5, 6, 7, 8, 255, 255, 255, 255})
	f.Add(uint64(3), uint8(50), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, lossPermille uint8, sizes []byte) {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		var plans [2][]int
		for i, b := range sizes {
			plans[i%2] = append(plans[i%2], 1+int(b)*257)
		}
		var impair *simnet.Impairment
		if lossPermille > 0 {
			impair = lossyPath(float64(lossPermille%101) / 1000)
		}
		runTLSTransfer(t, int64(seed>>1), impair, plans)
	})
}
