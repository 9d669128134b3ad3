package quicsim

import (
	"bytes"
	"testing"
	"time"

	"h3cdn/internal/cc"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// world is a client and a server on one scheduler whose endpoints share
// one Pools, as a universe's endpoints do.
type world struct {
	sched    *simnet.Scheduler
	net      *simnet.Network
	client   *simnet.Host
	server   *simnet.Host
	sessions *ServerSessions
	pools    *Pools
}

func newWorld(t *testing.T, delay time.Duration, bps, loss float64, seed uint64) *world {
	t.Helper()
	sched := &simnet.Scheduler{MaxEvents: 5_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: delay, BandwidthBps: bps, LossRate: loss}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(seed))
	return &world{
		sched:    sched,
		net:      n,
		client:   n.AddHost("client"),
		server:   n.AddHost("server"),
		sessions: NewServerSessions(),
		pools:    &Pools{},
	}
}

// clientCfg and serverCfg put c on the world's Pools.
func (w *world) clientCfg(c ClientConfig) ClientConfig {
	c.Pools = w.pools
	return c
}

func (w *world) serverCfg(c ServerConfig) ServerConfig {
	c.Pools = w.pools
	return c
}

func (w *world) run(t *testing.T) {
	t.Helper()
	if _, err := w.sched.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

// echoListen starts a server that echoes every stream back.
func echoListen(t *testing.T, w *world) *Endpoint {
	t.Helper()
	e, err := Listen(w.server, 443, w.serverCfg(ServerConfig{Sessions: w.sessions}), func(c *Conn) {
		c.SetStreamFunc(func(s *Stream) {
			s.SetDataFunc(func(p []byte) { s.Write(p) })
			s.finFn = func() { s.CloseWrite() }
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHandshakeIsOneRTT(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 0, 0, 1)
	echoListen(t, w)
	var at time.Duration
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		at = w.sched.Now()
		if c.Resumed() {
			t.Fatal("fresh dial reported resumed")
		}
	})
	w.run(t)
	if at != 50*time.Millisecond {
		t.Fatalf("established at %v, want 50ms (one RTT)", at)
	}
}

func TestZeroRTTIsImmediate(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 0, 0, 1)
	echoListen(t, w)
	tokens := NewTokenStore()

	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens}), nil)
	w.run(t)
	if len(tokens.byName) != 1 {
		t.Fatalf("token store has %d tokens after handshake, want 1", len(tokens.byName))
	}

	base := w.sched.Now()
	var at time.Duration
	var conn *Conn
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens, EnableZeroRTT: true}), func(c *Conn) {
		at = w.sched.Now()
		conn = c
	})
	w.run(t)
	if at != base {
		t.Fatalf("0-RTT established at %v, want %v (immediate)", at, base)
	}
	if !conn.Resumed() || !conn.UsedZeroRTT() {
		t.Fatalf("resumed=%v zeroRTT=%v, want both", conn.Resumed(), conn.UsedZeroRTT())
	}
	if conn.HandshakeDuration() != 0 {
		t.Fatalf("0-RTT handshake duration = %v, want 0", conn.HandshakeDuration())
	}
}

func TestZeroRTTDataReachesServerInHalfRTT(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 0, 0, 1)
	var firstByte time.Duration
	if _, err := Listen(w.server, 443, w.serverCfg(ServerConfig{Sessions: w.sessions}), func(c *Conn) {
		c.SetStreamFunc(func(s *Stream) {
			s.SetDataFunc(func(p []byte) {
				if firstByte == 0 {
					firstByte = w.sched.Now()
				}
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	tokens := NewTokenStore()
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens}), nil)
	w.run(t)

	base := w.sched.Now()
	firstByte = 0
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens, EnableZeroRTT: true}), func(c *Conn) {
		s := c.OpenStream()
		s.Write([]byte("GET / HTTP/3 0rtt"))
	})
	w.run(t)
	// Request bytes ride the first flight: one-way delay only.
	if got := firstByte - base; got != 25*time.Millisecond {
		t.Fatalf("0-RTT request reached server after %v, want 25ms", got)
	}
}

func TestBogusTokenRejected(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 0, 0, 1)
	echoListen(t, w)
	tokens := NewTokenStore()
	tokens.Put(Token{ID: 424242, ServerName: "server"})
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens}), func(c *Conn) {
		if c.Resumed() {
			t.Fatal("server accepted a token it never issued")
		}
	})
	w.run(t)
}

func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 13)
	}
	return p
}

func TestStreamEcho(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 100e6, 0, 1)
	echoListen(t, w)
	payload := patterned(200 * 1024)
	var got bytes.Buffer
	eof := false
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		s := c.OpenStream()
		s.SetDataFunc(func(p []byte) { got.Write(p) })
		s.finFn = func() { eof = true }
		s.Write(payload)
		s.CloseWrite()
	})
	w.run(t)
	if !eof {
		t.Fatal("no FIN delivered")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("echo mismatch: %d/%d bytes", got.Len(), len(payload))
	}
}

func TestStreamEchoUnderLoss(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		w := newWorld(t, 10*time.Millisecond, 50e6, loss, 77)
		echoListen(t, w)
		payload := patterned(100 * 1024)
		var got bytes.Buffer
		eof := false
		Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
			s := c.OpenStream()
			s.SetDataFunc(func(p []byte) { got.Write(p) })
			s.finFn = func() { eof = true }
			s.Write(payload)
			s.CloseWrite()
		})
		w.run(t)
		if !eof || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("loss=%v: eof=%v, %d/%d bytes", loss, eof, got.Len(), len(payload))
		}
	}
}

func TestManyStreamsMultiplexed(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 50e6, 0.02, 5)
	echoListen(t, w)
	const streams = 16
	sizes := make([]int, streams)
	got := make([]bytes.Buffer, streams)
	fins := 0
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		for i := 0; i < streams; i++ {
			i := i
			sizes[i] = 4*1024 + i*512
			s := c.OpenStream()
			s.SetDataFunc(func(p []byte) { got[i].Write(p) })
			s.finFn = func() { fins++ }
			s.Write(patterned(sizes[i]))
			s.CloseWrite()
		}
	})
	w.run(t)
	if fins != streams {
		t.Fatalf("%d/%d streams finished", fins, streams)
	}
	for i := 0; i < streams; i++ {
		if !bytes.Equal(got[i].Bytes(), patterned(sizes[i])) {
			t.Fatalf("stream %d corrupted: %d/%d bytes", i, got[i].Len(), sizes[i])
		}
	}
}

func TestPerStreamOrderingUnderLoss(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 20e6, 0.08, 3)
	echoListen(t, w)
	payload := patterned(64 * 1024)
	off := 0
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		s := c.OpenStream()
		s.SetDataFunc(func(p []byte) {
			for _, b := range p {
				if b != byte(off*13) {
					t.Fatalf("out-of-order byte at offset %d", off)
				}
				off++
			}
		})
		s.Write(payload)
		s.CloseWrite()
	})
	w.run(t)
	if off != len(payload) {
		t.Fatalf("delivered %d/%d bytes", off, len(payload))
	}
}

// TestNoCrossStreamHoLBlocking is the package's key property: dropping a
// packet that carries only stream A's data must not delay stream B.
func TestNoCrossStreamHoLBlocking(t *testing.T) {
	finishTimes := func(dropA bool) (aDone, bDone time.Duration) {
		w := newWorld(t, 20*time.Millisecond, 0, 0, 9)
		// Server sends a large response on stream A and a small one on
		// stream B when poked.
		if _, err := Listen(w.server, 443, w.serverCfg(ServerConfig{Sessions: w.sessions}), func(c *Conn) {
			c.SetStreamFunc(func(s *Stream) {
				s.finFn = func() {
					s.Write(patterned(8 * 1024))
					s.CloseWrite()
				}
			})
		}); err != nil {
			t.Fatal(err)
		}

		dropped := false
		if dropA {
			w.net.SetFilter(func(pkt simnet.Packet) bool {
				p, ok := pkt.Payload.(*packet)
				if !ok || dropped || pkt.Src != "server" {
					return true
				}
				for _, f := range p.frames {
					if sf, ok := f.(*streamFrame); ok && sf.s.id == 0 && sf.off == 0 {
						dropped = true
						return false // drop stream A's first data packet
					}
				}
				return true
			})
		}

		Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
			a := c.OpenStream() // id 0
			a.finFn = func() { aDone = w.sched.Now() }
			a.CloseWrite()
			b := c.OpenStream() // id 4
			b.finFn = func() { bDone = w.sched.Now() }
			b.CloseWrite()
		})
		w.run(t)
		if aDone == 0 || bDone == 0 {
			t.Fatalf("streams did not finish: a=%v b=%v", aDone, bDone)
		}
		return aDone, bDone
	}

	aClean, bClean := finishTimes(false)
	aDrop, bDrop := finishTimes(true)
	if aDrop <= aClean {
		t.Fatalf("dropping stream A's packet did not delay A: clean=%v drop=%v", aClean, aDrop)
	}
	if bDrop != bClean {
		t.Fatalf("stream B was delayed by stream A's loss: clean=%v drop=%v (HoL blocking!)", bClean, bDrop)
	}
}

func TestLossStatsCounted(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 50e6, 0.05, 21)
	echoListen(t, w)
	var rs simnet.RecoveryStats
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{Config: Config{Recovery: &rs}, ServerName: "server"}), func(c *Conn) {
		s := c.OpenStream()
		s.Write(patterned(512 * 1024))
		s.CloseWrite()
	})
	w.run(t)
	if rs.PacketsDeclaredLost == 0 && rs.ProbeFires == 0 {
		t.Fatalf("no loss detected under 5%% loss: %+v", rs)
	}
}

func TestCleanCloseNotifiesPeer(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0, 1)
	var serverClosed error
	gotClose := false
	if _, err := Listen(w.server, 443, w.serverCfg(ServerConfig{Sessions: w.sessions}), func(c *Conn) {
		c.SetCloseFunc(func(err error) { gotClose = true; serverClosed = err })
	}); err != nil {
		t.Fatal(err)
	}
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		w.sched.After(10*time.Millisecond, c.Close)
	})
	w.run(t)
	if !gotClose || serverClosed != nil {
		t.Fatalf("server close: got=%v err=%v, want clean close", gotClose, serverClosed)
	}
}

func TestEndpointCleansUpOnClose(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0, 1)
	e := echoListen(t, w)
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		w.sched.After(10*time.Millisecond, c.Close)
	})
	w.run(t)
	if len(e.conns) != 0 {
		t.Fatalf("endpoint tracks %d conns after close", len(e.conns))
	}
	if w.sched.Pending() != 0 {
		t.Fatalf("%d stray events (timer leak)", w.sched.Pending())
	}
}

func TestStatelessCloseForUnknownConn(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0, 1)
	e := echoListen(t, w)
	var clientErr error
	var conn *Conn
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		conn = c
		c.SetCloseFunc(func(err error) { clientErr = err })
		// Simulate server state loss, then more client traffic.
		w.sched.After(10*time.Millisecond, func() {
			e.remove("client", conn.localPort)
			s := c.OpenStream()
			s.Write([]byte("hello?"))
		})
	})
	w.run(t)
	if clientErr == nil {
		t.Fatal("client not notified after server state loss")
	}
}

func TestDialNoServerTimesOut(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0, 1)
	var errGot error
	c := Dial(w.client, "server", 443, w.clientCfg(ClientConfig{
		Config:     Config{PTOInit: 50 * time.Millisecond, MaxPTOs: 3},
		ServerName: "server",
	}), func(*Conn) { t.Fatal("established with no server") })
	c.SetCloseFunc(func(err error) { errGot = err })
	w.run(t)
	if errGot == nil {
		t.Fatal("no timeout error")
	}
}

func TestHandshakeSurvivesHeavyLoss(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, 0, 0.5, 123)
	echoListen(t, w)
	done := false
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{
		Config:     Config{PTOInit: 50 * time.Millisecond, MaxPTOs: 20},
		ServerName: "server",
	}), func(c *Conn) { done = true })
	w.run(t)
	if !done {
		t.Fatal("handshake never completed under 50% loss with generous probes")
	}
}

func TestDeterministicRuns(t *testing.T) {
	once := func() time.Duration {
		w := newWorld(t, 10*time.Millisecond, 20e6, 0.03, 55)
		echoListen(t, w)
		var done time.Duration
		Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
			s := c.OpenStream()
			s.finFn = func() { done = w.sched.Now() }
			s.Write(patterned(64 * 1024))
			s.CloseWrite()
		})
		w.run(t)
		return done
	}
	if a, b := once(), once(); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestRangeSet(t *testing.T) {
	var rs rangeSet
	for _, pn := range []uint64{5, 3, 4, 10, 1, 2, 11} {
		if !rs.add(pn) {
			t.Fatalf("add(%d) reported duplicate", pn)
		}
	}
	if rs.add(4) {
		t.Fatal("duplicate 4 accepted")
	}
	// Expect ranges [1-5] [10-11].
	if len(rs.ranges) != 2 || rs.ranges[0] != (pnRange{1, 5}) || rs.ranges[1] != (pnRange{10, 11}) {
		t.Fatalf("ranges = %v", rs.ranges)
	}
	if lg, ok := rs.largest(); !ok || lg != 11 {
		t.Fatalf("largest = %d, %v", lg, ok)
	}
	snap := rs.snapshot(nil, 1)
	if len(snap) != 1 || snap[0] != (pnRange{10, 11}) {
		t.Fatalf("snapshot = %v", snap)
	}
	if !rs.contains(3) || rs.contains(7) {
		t.Fatal("contains wrong")
	}
}

func TestRangeSetMergesAcrossGap(t *testing.T) {
	var rs rangeSet
	rs.add(1)
	rs.add(3)
	rs.add(2) // bridges [1] and [3]
	if len(rs.ranges) != 1 || rs.ranges[0] != (pnRange{1, 3}) {
		t.Fatalf("ranges = %v, want [{1 3}]", rs.ranges)
	}
}

// TestFirstFlightIsInitialWindow: on a long clean path a cold bulk
// transfer fills the sender's initial window and blocks on cwnd with data
// still queued, at most one packet over it, on either side of a
// connection with the production configs: the servers' IW32 (core's
// edges and origins) and the browser's IW10, in 1200 B packets. A
// profile wired to the wrong side fails one of the two.
func TestFirstFlightIsInitialWindow(t *testing.T) {
	serverCfg := Config{InitCwndPkts: 32, PTOInit: 300 * time.Millisecond}
	clientCfg := Config{PTOInit: 150 * time.Millisecond}
	for _, tc := range []struct {
		side     string
		upload   int // the client's bytes; the server answers with a bulk transfer when it is one
		inFlight int
	}{
		{"client", 256 * 1024, 10 * maxPacketPayload},
		{"server", 1, 32 * maxPacketPayload},
	} {
		t.Run(tc.side, func(t *testing.T) {
			w := newWorld(t, 100*time.Millisecond, 0, 0, 1)
			checked := false
			// check reads the sender right after its bulk write, then
			// closes the connection: the rest of the transfer is not
			// under test.
			check := func(c *Conn, s *Stream) {
				checked = true
				if c.bytesInFlight < tc.inFlight || c.bytesInFlight >= tc.inFlight+packetOverhead+maxPacketPayload || !s.hasSendable() {
					t.Errorf("first flight %d B (stream still sending: %v), want a block on cwnd at %d B plus at most one packet",
						c.bytesInFlight, s.hasSendable(), tc.inFlight)
				}
				c.Close()
			}
			if _, err := Listen(w.server, 443, w.serverCfg(ServerConfig{Config: serverCfg}), func(c *Conn) {
				c.SetStreamFunc(func(s *Stream) {
					s.SetDataFunc(func([]byte) {
						if tc.upload == 1 && !checked {
							s.Write(patterned(256 * 1024))
							check(c, s)
						}
					})
				})
			}); err != nil {
				t.Fatal(err)
			}
			Dial(w.client, "server", 443, w.clientCfg(ClientConfig{Config: clientCfg, ServerName: "server"}), func(c *Conn) {
				s := c.OpenStream()
				s.Write(patterned(tc.upload))
				if tc.upload > 1 {
					check(c, s)
				}
			})
			w.run(t)
			if !checked {
				t.Fatal("no bulk transfer started")
			}
		})
	}
}

func TestBandwidthResumption(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 100e6, 0, 1)
	echoListen(t, w)
	tokens := NewTokenStore()

	// First connection: grow the cwnd with a bulk transfer.
	var firstCwnd float64
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens}), func(c *Conn) {
		s := c.OpenStream()
		s.finFn = func() {
			firstCwnd = c.win.Cwnd
			c.Close()
		}
		s.Write(patterned(512 * 1024))
		s.CloseWrite()
	})
	w.run(t)
	if firstCwnd <= float64(10*maxPacketPayload) {
		t.Fatalf("first connection cwnd did not grow: %v", firstCwnd)
	}

	// The echo server's own connection cached its cwnd at close; a
	// resumed connection must start above the initial window.
	var resumedCwnd float64
	var established bool
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Tokens: tokens}), func(c *Conn) {
		established = true
		if !c.Resumed() {
			t.Fatal("second connection not resumed")
		}
		_ = c
	})
	// Inspect the server side: its conn for the new client should have
	// an elevated initial cwnd. We verify indirectly via the sessions
	// cache being non-zero for the first issued token.
	w.run(t)
	if !established {
		t.Fatal("second connection failed")
	}
	if got := w.sessions.cwnds[0]; got <= float64(10*maxPacketPayload) {
		t.Fatalf("cached cwnd for token 1 = %v, want grown window", got)
	}
	_ = resumedCwnd
}

func TestBandwidthResumptionCapped(t *testing.T) {
	s := NewServerSessions()
	id := s.issue()
	s.storeCwnd(id, 1e12)
	prof := Config{}.withDefaults().profile()
	w := cc.NewWindow(&prof)
	s.resumeCwnd(id, &w, 1000*maxPacketPayload)
	if w.Cwnd != 1000*maxPacketPayload || w.Ssthresh != w.Cwnd {
		t.Fatalf("resumed window %v / ssthresh %v, want both at the %d B cap", w.Cwnd, w.Ssthresh, 1000*maxPacketPayload)
	}
	// An unknown token, or a cached window below the current one, leaves
	// the window as it is.
	w = cc.NewWindow(&prof)
	s.resumeCwnd(999, &w, 1e12)
	s.storeCwnd(id, 1)
	s.resumeCwnd(id, &w, 1e12)
	if w != cc.NewWindow(&prof) {
		t.Fatalf("window moved to %v / %v without a larger cached cwnd", w.Cwnd, w.Ssthresh)
	}
}

// TestTokenStoreClearKeepsStorage: Clear empties the store, and
// refilling it with the same names allocates nothing.
func TestTokenStoreClearKeepsStorage(t *testing.T) {
	s := NewTokenStore()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	refill := func() {
		s.Clear()
		for i, n := range names {
			s.Put(Token{ID: uint64(i + 1), ServerName: n})
		}
	}
	refill()
	s.Clear()
	if _, ok := s.Get("a"); ok || len(s.byName) != 0 {
		t.Fatalf("Clear left %d tokens", len(s.byName))
	}
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("refilling a cleared store allocated %.1f times", allocs)
	}
}
