package tcpsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// world is two hosts on one scheduler whose endpoints share one Pools and
// one wire arena, as a universe's endpoints do.
type world struct {
	sched *simnet.Scheduler
	net   *simnet.Network
	a, b  *simnet.Host
	pools *Pools
	arena *bufpool.Arena
}

func newWorld(t *testing.T, delay time.Duration, bps, loss float64) *world {
	t.Helper()
	sched := &simnet.Scheduler{MaxEvents: 5_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: delay, BandwidthBps: bps, LossRate: loss}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(uint64(delay)+uint64(bps)+uint64(loss*1000)+17))
	return &world{sched: sched, net: n, a: n.AddHost("client"), b: n.AddHost("server"), pools: &Pools{}, arena: &bufpool.Arena{}}
}

// config puts c on the world's Pools and wire arena.
func (w *world) config(c Config) Config {
	c.Pools, c.Arena = w.pools, w.arena
	return c
}

// echoServer accepts connections and echoes every byte back.
func echoServer(t *testing.T, host *simnet.Host, port uint16, cfg Config) *Listener {
	t.Helper()
	l, err := Listen(host, port, cfg, func(c *Conn) {
		c.SetDataFunc(func(p []byte) { c.Write(p) })
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func run(t *testing.T, s *simnet.Scheduler) {
	t.Helper()
	if _, err := s.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

func TestHandshakeLatency(t *testing.T) {
	w := newWorld(t, 25*time.Millisecond, 0, 0)
	if _, err := Listen(w.b, 80, w.config(Config{}), nil); err != nil {
		t.Fatal(err)
	}
	var established time.Duration
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) { established = w.sched.Now() })
	run(t, w.sched)
	if established != 50*time.Millisecond {
		t.Fatalf("client established at %v, want exactly one RTT (50ms)", established)
	}
}

func TestHandshakeRTTSample(t *testing.T) {
	w := newWorld(t, 30*time.Millisecond, 0, 0)
	if _, err := Listen(w.b, 80, w.config(Config{}), nil); err != nil {
		t.Fatal(err)
	}
	var srtt time.Duration
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) { srtt = c.rtt.SRTT })
	run(t, w.sched)
	if srtt != 60*time.Millisecond {
		t.Fatalf("handshake SRTT = %v, want 60ms", srtt)
	}
}

func transfer(t *testing.T, w *world, payload []byte, cfg Config) (received []byte, done time.Duration) {
	t.Helper()
	echoServer(t, w.b, 80, cfg)
	var buf bytes.Buffer
	Dial(w.a, "server", 80, cfg, func(c *Conn) {
		c.SetDataFunc(func(p []byte) {
			buf.Write(p)
			if buf.Len() == len(payload) {
				done = w.sched.Now()
			}
		})
		c.Write(payload)
	})
	run(t, w.sched)
	return buf.Bytes(), done
}

func patterned(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestEchoSmall(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	payload := []byte("hello over simulated tcp")
	got, _ := transfer(t, w, payload, w.config(Config{}))
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: %q", got)
	}
}

func TestEchoLargeCleanPath(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 100e6, 0)
	payload := patterned(512 * 1024)
	got, done := transfer(t, w, payload, w.config(Config{}))
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
	}
	if done == 0 || done > 2*time.Second {
		t.Fatalf("512KB echo finished at %v", done)
	}
}

func TestEchoLossyPath(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.10} {
		w := newWorld(t, 10*time.Millisecond, 50e6, loss)
		payload := patterned(128 * 1024)
		got, _ := transfer(t, w, payload, w.config(Config{}))
		if !bytes.Equal(got, payload) {
			t.Fatalf("loss=%v: corrupted or incomplete echo (%d/%d bytes)", loss, len(got), len(payload))
		}
	}
}

func TestLossSlowsTransfer(t *testing.T) {
	elapsed := func(loss float64) time.Duration {
		w := newWorld(t, 10*time.Millisecond, 50e6, loss)
		payload := patterned(256 * 1024)
		got, done := transfer(t, w, payload, w.config(Config{}))
		if len(got) != len(payload) {
			t.Fatalf("loss=%v: incomplete", loss)
		}
		return done
	}
	clean, lossy := elapsed(0), elapsed(0.05)
	if lossy <= clean {
		t.Fatalf("5%% loss (%v) not slower than clean path (%v)", lossy, clean)
	}
}

func TestRetransmitCountedUnderLoss(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, 50e6, 0.05)
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func([]byte) {})
	}); err != nil {
		t.Fatal(err)
	}
	var rs simnet.RecoveryStats
	Dial(w.a, "server", 80, w.config(Config{Recovery: &rs}), func(c *Conn) {
		c.Write(patterned(256 * 1024))
	})
	run(t, w.sched)
	if rs.Retransmits == 0 {
		t.Fatal("no retransmissions under 5% loss")
	}
}

func TestNoRetransmitOnCleanPath(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, 100e6, 0)
	payload := patterned(64 * 1024)
	echoServer(t, w.b, 80, w.config(Config{}))
	var rs simnet.RecoveryStats
	n := 0
	Dial(w.a, "server", 80, w.config(Config{Recovery: &rs}), func(c *Conn) {
		c.SetDataFunc(func(p []byte) { n += len(p) })
		c.Write(payload)
	})
	run(t, w.sched)
	if n != len(payload) {
		t.Fatalf("delivered %d, want %d", n, len(payload))
	}
	if rs.Retransmits != 0 || rs.Timeouts != 0 {
		t.Fatalf("clean path produced retransmits: %+v", rs)
	}
}

func TestInOrderDelivery(t *testing.T) {
	// Under heavy loss, delivery must still be strictly in order: every
	// delivered chunk continues the pattern exactly.
	w := newWorld(t, 10*time.Millisecond, 20e6, 0.1)
	payload := patterned(100 * 1024)
	echoServer(t, w.b, 80, w.config(Config{}))
	off := 0
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func(p []byte) {
			for _, b := range p {
				if b != byte(off*7) {
					t.Fatalf("out-of-order byte at offset %d", off)
				}
				off++
			}
		})
		c.Write(payload)
	})
	run(t, w.sched)
	if off != len(payload) {
		t.Fatalf("delivered %d bytes, want %d", off, len(payload))
	}
}

func TestGracefulClose(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	var serverEOF, clientEOF bool
	l, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func([]byte) {})
		c.SetCloseFunc(func(err error) {
			if err != nil {
				t.Fatalf("server close err: %v", err)
			}
			serverEOF = true
			c.Close() // passive close: respond with our FIN
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.SetCloseFunc(func(err error) {
			if err != nil {
				t.Fatalf("client close err: %v", err)
			}
			clientEOF = true
		})
		c.Write([]byte("bye"))
		c.Close()
	})
	run(t, w.sched)
	if !serverEOF || !clientEOF {
		t.Fatalf("serverEOF=%v clientEOF=%v, want both", serverEOF, clientEOF)
	}
	if l.ConnCount() != 0 {
		t.Fatalf("listener still tracks %d conns after close", l.ConnCount())
	}
}

func TestCloseFlushesPendingData(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 10e6, 0)
	payload := patterned(200 * 1024) // many cwnd rounds
	var got bytes.Buffer
	eof := false
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func(p []byte) { got.Write(p) })
		c.SetCloseFunc(func(err error) { eof = true })
	}); err != nil {
		t.Fatal(err)
	}
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.Write(payload)
		c.Close() // immediately: FIN must trail all data
	})
	run(t, w.sched)
	if !eof {
		t.Fatal("no EOF delivered")
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("close lost data: %d/%d bytes", got.Len(), len(payload))
	}
}

func TestAbortResetsPeer(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	var serverErr error
	l, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetCloseFunc(func(err error) { serverErr = err })
	})
	if err != nil {
		t.Fatal(err)
	}
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.Write([]byte("x"))
		w.sched.After(100*time.Millisecond, c.Abort)
	})
	run(t, w.sched)
	if !errors.Is(serverErr, ErrAborted) {
		t.Fatalf("server close err = %v, want ErrAborted", serverErr)
	}
	if l.ConnCount() != 0 {
		t.Fatalf("listener still tracks %d conns after RST", l.ConnCount())
	}
	if w.sched.Pending() != 0 {
		t.Fatalf("%d stray events after abort (timer leak)", w.sched.Pending())
	}
}

func TestDialNoListenerTimesOut(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	// No RST from raw hosts in this sim: the SYN retries, then fails.
	var dialErr error
	var failedAt time.Duration
	established := false
	c := Dial(w.a, "server", 80, w.config(Config{MaxRetries: 3}), func(*Conn) {
		established = true
	})
	c.SetCloseFunc(func(err error) { dialErr, failedAt = err, w.sched.Now() })
	run(t, w.sched)
	if established {
		t.Fatal("established with no listener")
	}
	if !errors.Is(dialErr, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", dialErr)
	}
	// Three SYN retransmissions back off from the first timeout, and the
	// fourth expiry gives up: 1+2+4+8 first timeouts.
	if want := 15 * profile.FirstTimeout; failedAt != want {
		t.Fatalf("dial failed at %v, want %v", failedAt, want)
	}
}

func TestStraysegmentGetsRST(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	l := echoServer(t, w.b, 80, w.config(Config{}))
	var failed error
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.SetCloseFunc(func(err error) { failed = err })
		// Simulate server state loss: the listener forgets the conn,
		// then the client sends more data and must get RST back.
		w.sched.After(50*time.Millisecond, func() {
			l.remove("client", c.localPort)
			c.Write([]byte("more"))
		})
	})
	run(t, w.sched)
	if !errors.Is(failed, ErrAborted) {
		t.Fatalf("client err = %v, want ErrAborted from RST", failed)
	}
}

func TestSlowStartThenCongestionAvoidance(t *testing.T) {
	w := newWorld(t, 20*time.Millisecond, 0, 0)
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func([]byte) {})
	}); err != nil {
		t.Fatal(err)
	}
	var c *Conn
	initial := 0.0
	Dial(w.a, "server", 80, w.config(Config{}), func(conn *Conn) {
		c = conn
		initial = c.win.Cwnd
		c.Write(patterned(400 * 1024))
	})
	run(t, w.sched)
	if initial != 10*1460 {
		t.Fatalf("initial cwnd = %v, want 10 segments", initial)
	}
	if c.win.Cwnd <= initial {
		t.Fatalf("cwnd did not grow: %v", c.win.Cwnd)
	}
}

// TestFirstFlightIsInitialWindow: on a long clean path a cold bulk
// transfer sends TCP's initial window, 10 × 1460 B (RFC 6928), and then
// blocks on cwnd with data still queued, at most one segment over it.
func TestFirstFlightIsInitialWindow(t *testing.T) {
	w := newWorld(t, 100*time.Millisecond, 0, 0)
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func([]byte) {})
	}); err != nil {
		t.Fatal(err)
	}
	var flight uint64
	unsent := 0
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.Write(patterned(256 * 1024))
		flight, unsent = c.flight(), c.UnsentBytes()
	})
	run(t, w.sched)
	if flight < 10*mss || flight >= 11*mss || unsent == 0 {
		t.Fatalf("first flight %d B with %d B unsent, want a block on cwnd at 14600 B plus at most one segment", flight, unsent)
	}
}

func TestFastRetransmitPreferredOverTimeout(t *testing.T) {
	// With moderate loss and plenty of data, most recoveries should be
	// fast retransmits (dupACK-triggered), not RTO timeouts.
	w := newWorld(t, 10*time.Millisecond, 50e6, 0.02)
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func([]byte) {})
	}); err != nil {
		t.Fatal(err)
	}
	var rs simnet.RecoveryStats
	Dial(w.a, "server", 80, w.config(Config{Recovery: &rs}), func(c *Conn) {
		c.Write(patterned(1024 * 1024))
	})
	run(t, w.sched)
	if rs.FastRetransmits == 0 {
		t.Fatalf("no fast retransmits: %+v", rs)
	}
	if rs.Timeouts > rs.FastRetransmits {
		t.Fatalf("timeouts (%d) dominate fast retransmits (%d)", rs.Timeouts, rs.FastRetransmits)
	}
}

// TestFastRetransmitOnThirdDupAck drops the first data segment of a
// transfer, so each segment behind it draws one duplicate ACK. Fast
// retransmit (RFC 5681 §3.2) must fire on the third duplicate ACK: with
// three segments behind the hole it repairs the loss with no timeout,
// and with two it must not fire, leaving the repair to the RTO.
func TestFastRetransmitOnThirdDupAck(t *testing.T) {
	for _, tc := range []struct {
		segs           int
		fast, timeouts int64
	}{
		{segs: 3, fast: 0, timeouts: 1},
		{segs: 4, fast: 1, timeouts: 0},
	} {
		w := newWorld(t, 10*time.Millisecond, 50e6, 0)
		dropped := false
		w.net.SetFilter(func(pkt simnet.Packet) bool {
			if seg, ok := pkt.Payload.(*segment); ok && !dropped && pkt.Src == "client" && len(seg.payload) > 0 {
				dropped = true
				return false
			}
			return true
		})
		var got []byte
		if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
			c.SetDataFunc(func(p []byte) { got = append(got, p...) })
		}); err != nil {
			t.Fatal(err)
		}
		var rs simnet.RecoveryStats
		payload := patterned(tc.segs * mss)
		Dial(w.a, "server", 80, w.config(Config{Recovery: &rs}), func(c *Conn) { c.Write(payload) })
		run(t, w.sched)
		if !dropped || !bytes.Equal(got, payload) {
			t.Fatalf("%d segments: dropped %v, received %d of %d bytes", tc.segs, dropped, len(got), len(payload))
		}
		if rs.FastRetransmits != tc.fast || rs.Timeouts != tc.timeouts {
			t.Fatalf("%d segments, %d duplicate ACKs: %d fast retransmits and %d timeouts, want %d and %d",
				tc.segs, tc.segs-1, rs.FastRetransmits, rs.Timeouts, tc.fast, tc.timeouts)
		}
	}
}

func TestSynLossRecovered(t *testing.T) {
	// 60% loss: handshake packets will often drop, but retries must
	// eventually establish (within the retry budget, seed-dependent).
	w := newWorld(t, 5*time.Millisecond, 0, 0.6)
	if _, err := Listen(w.b, 80, w.config(Config{}), nil); err != nil {
		t.Fatal(err)
	}
	established := false
	Dial(w.a, "server", 80, w.config(Config{MaxRetries: 20}), func(*Conn) {
		established = true
	})
	run(t, w.sched)
	if !established {
		t.Fatal("handshake never completed under loss with generous retries")
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 20e6, 0.01)
	up := patterned(64 * 1024)
	down := patterned(96 * 1024)
	var gotUp, gotDown bytes.Buffer
	if _, err := Listen(w.b, 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func(p []byte) { gotUp.Write(p) })
		c.Write(down)
	}); err != nil {
		t.Fatal(err)
	}
	Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
		c.SetDataFunc(func(p []byte) { gotDown.Write(p) })
		c.Write(up)
	})
	run(t, w.sched)
	if !bytes.Equal(gotUp.Bytes(), up) {
		t.Fatalf("upstream mismatch: %d/%d", gotUp.Len(), len(up))
	}
	if !bytes.Equal(gotDown.Bytes(), down) {
		t.Fatalf("downstream mismatch: %d/%d", gotDown.Len(), len(down))
	}
}

func TestManyParallelConnections(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 100e6, 0.01)
	echoServer(t, w.b, 80, w.config(Config{}))
	const conns = 20
	counts := make([]int, conns)
	for i := 0; i < conns; i++ {
		i := i
		payload := patterned(8 * 1024)
		Dial(w.a, "server", 80, w.config(Config{}), func(c *Conn) {
			c.SetDataFunc(func(p []byte) { counts[i] += len(p) })
			c.Write(payload)
		})
	}
	run(t, w.sched)
	for i, n := range counts {
		if n != 8*1024 {
			t.Fatalf("conn %d delivered %d bytes, want %d", i, n, 8*1024)
		}
	}
}

func TestSegmentWireSize(t *testing.T) {
	seg := &segment{payload: make([]byte, 100)}
	if seg.wireSize() != 140 {
		t.Fatalf("wireSize = %d, want 140", seg.wireSize())
	}
	fin := &segment{flags: flagFIN, seq: 10}
	if fin.end() != 11 {
		t.Fatalf("FIN end = %d, want 11 (consumes one offset)", fin.end())
	}
}

func TestDeterministicTransfer(t *testing.T) {
	runOnce := func() time.Duration {
		w := newWorld(t, 10*time.Millisecond, 20e6, 0.03)
		_, done := transfer(t, w, patterned(64*1024), w.config(Config{}))
		return done
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("same seed produced different completion times: %v vs %v", a, b)
	}
}

// TestListenerDemuxForgetsTornDownConn pins the listener's cached demux:
// once a connection is torn down, a new SYN from the same (addr, port)
// opens a new connection instead of reaching the old one through the
// cache.
func TestListenerDemuxForgetsTornDownConn(t *testing.T) {
	w := newWorld(t, 5*time.Millisecond, 0, 0)
	pools := w.pools
	accepted := 0
	l, err := Listen(w.b, 80, w.config(Config{}), func(*Conn) { accepted++ })
	if err != nil {
		t.Fatal(err)
	}
	c := Dial(w.a, "server", 80, w.config(Config{}), nil)
	run(t, w.sched)
	port := c.localPort
	if accepted != 1 || l.ConnCount() != 1 {
		t.Fatalf("accepted %d, tracking %d conns; want 1 and 1", accepted, l.ConnCount())
	}
	// The client's RST is the last segment the listener demultiplexes;
	// it tears the server conn down, and its struct goes back to the
	// pool once the next event runs.
	c.Abort()
	run(t, w.sched)
	if l.ConnCount() != 0 {
		t.Fatalf("tracking %d conns after the peer's RST, want 0", l.ConnCount())
	}

	// A raw endpoint on the freed port opens anew from the same address.
	var replies []segFlags
	if err := w.a.Bind(port, func(p simnet.Packet) { replies = append(replies, p.Payload.(*segment).flags) }); err != nil {
		t.Fatal(err)
	}
	syn := newSegment(pools)
	syn.flags = flagSYN
	w.a.Send(port, "server", 80, syn.wireSize(), syn)
	w.sched.RunUntil(w.sched.Now() + 20*time.Millisecond)
	if l.ConnCount() != 1 || len(replies) != 1 || replies[0] != flagSYN|flagACK {
		t.Fatalf("after a new SYN from %d: tracking %d conns, replies %v; want 1 conn and one SYN-ACK", port, l.ConnCount(), replies)
	}
}
