package tlssim

import (
	"bytes"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
)

// rig is what one test's endpoints share, as a universe's endpoints do:
// a scheduler, the TCP pools, and one wire arena that TCP and TLS both
// draw from.
type rig struct {
	sched *simnet.Scheduler
	tcp   tcpsim.Pools
	wire  bufpool.Arena
}

func newRig() *rig { return &rig{sched: &simnet.Scheduler{MaxEvents: 2_000_000}} }

// tcpCfg, clientCfg and serverCfg put a configuration on the rig.
func (r *rig) tcpCfg() tcpsim.Config { return tcpsim.Config{Pools: &r.tcp, Arena: &r.wire} }

func (r *rig) clientCfg(cfg ClientConfig) ClientConfig {
	cfg.Sched, cfg.Arena = r.sched, &r.wire
	return cfg
}

func (r *rig) serverCfg(cfg ServerConfig) ServerConfig {
	cfg.Sched, cfg.Arena = r.sched, &r.wire
	return cfg
}

// run drains the rig's scheduler.
func (r *rig) run(t testing.TB) {
	t.Helper()
	if _, err := r.sched.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

// testWorld wires client and server hosts with a symmetric 25ms one-way
// delay (50ms RTT) and a TLS echo server.
type testWorld struct {
	*rig
	net      *simnet.Network
	client   *simnet.Host
	server   *simnet.Host
	sessions *ServerSessionState
}

func newTestWorld(t *testing.T, loss float64) *testWorld {
	t.Helper()
	r := newRig()
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		props := simnet.PathProps{Delay: 25 * time.Millisecond, LossRate: loss}
		if loss > 0 {
			props.BandwidthBps = 100e6
		}
		return props
	}
	n := simnet.NewNetwork(r.sched, pf, seqrand.New(11))
	w := &testWorld{
		rig:      r,
		net:      n,
		client:   n.AddHost("client"),
		server:   n.AddHost("server"),
		sessions: NewServerSessionState(),
	}
	// TLS echo server.
	if _, err := tcpsim.Listen(w.server, 443, r.tcpCfg(), func(tc *tcpsim.Conn) {
		var tlsConn *Conn
		tlsConn = Server(tc, r.serverCfg(ServerConfig{Sessions: w.sessions}), nil)
		tlsConn.SetDataFunc(func(p []byte) { tlsConn.Write(p) })
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// dial opens TCP+TLS and invokes ready when app data may flow.
func (w *testWorld) dial(t *testing.T, cfg ClientConfig, ready func(*Conn)) {
	t.Helper()
	cfg = w.clientCfg(cfg)
	if cfg.ServerName == "" {
		cfg.ServerName = "server"
	}
	tcpsim.Dial(w.client, "server", 443, w.tcpCfg(), func(tc *tcpsim.Conn) {
		var tlsConn *Conn
		tlsConn = Client(tc, cfg, func(err error) {
			if err != nil {
				t.Fatalf("handshake: %v", err)
			}
			ready(tlsConn)
		})
	})
}

func TestTLS13HandshakeIsTwoRTTsTotal(t *testing.T) {
	w := newTestWorld(t, 0)
	var readyAt time.Duration
	w.dial(t, ClientConfig{Version: TLS13}, func(c *Conn) {
		readyAt = w.sched.Now()
		if c.Resumed() {
			t.Fatal("fresh handshake reported resumed")
		}
	})
	w.run(t)
	// 1 RTT TCP + 1 RTT TLS 1.3 = 100ms.
	if readyAt != 100*time.Millisecond {
		t.Fatalf("TLS 1.3 ready at %v, want 100ms", readyAt)
	}
}

func TestTLS12HandshakeIsThreeRTTsTotal(t *testing.T) {
	w := newTestWorld(t, 0)
	var readyAt time.Duration
	w.dial(t, ClientConfig{Version: TLS12}, func(c *Conn) {
		readyAt = w.sched.Now()
	})
	w.run(t)
	// 1 RTT TCP + 2 RTT TLS 1.2 = 150ms: the paper's "three round-trip
	// times" for the H2 + TLS/1.2 suite.
	if readyAt != 150*time.Millisecond {
		t.Fatalf("TLS 1.2 ready at %v, want 150ms", readyAt)
	}
}

func TestTLS13ResumptionEarlyDataIsOneRTTTotal(t *testing.T) {
	w := newTestWorld(t, 0)
	tickets := NewTicketStore()

	var first, second time.Duration
	w.dial(t, ClientConfig{Version: TLS13, Tickets: tickets}, func(c *Conn) {
		first = w.sched.Now()
	})
	w.run(t)
	if len(tickets.byName) != 1 {
		t.Fatalf("ticket store has %d tickets after first handshake, want 1", len(tickets.byName))
	}

	base := w.sched.Now()
	w.dial(t, ClientConfig{Version: TLS13, Tickets: tickets, EnableEarlyData: true}, func(c *Conn) {
		second = w.sched.Now()
		if !c.Resumed() || !c.earlyData {
			t.Fatalf("resumed=%v earlyData=%v, want both", c.Resumed(), c.earlyData)
		}
	})
	w.run(t)

	if first != 100*time.Millisecond {
		t.Fatalf("first handshake at %v, want 100ms", first)
	}
	// Second: only the TCP handshake (50ms); TLS adds zero RTT.
	if second-base != 50*time.Millisecond {
		t.Fatalf("resumed handshake took %v, want 50ms", second-base)
	}
}

func TestTLS13ResumptionWithoutEarlyData(t *testing.T) {
	w := newTestWorld(t, 0)
	tickets := NewTicketStore()
	w.dial(t, ClientConfig{Version: TLS13, Tickets: tickets}, func(*Conn) {})
	w.run(t)

	base := w.sched.Now()
	var at time.Duration
	w.dial(t, ClientConfig{Version: TLS13, Tickets: tickets}, func(c *Conn) {
		at = w.sched.Now() - base
		if !c.Resumed() {
			t.Fatal("second handshake not resumed")
		}
		if c.earlyData {
			t.Fatal("early data used without being enabled")
		}
	})
	w.run(t)
	// PSK without early data still costs 1 TLS RTT: 100ms total.
	if at != 100*time.Millisecond {
		t.Fatalf("resumed (no 0-RTT) handshake took %v, want 100ms", at)
	}
}

func TestUnknownTicketFallsBackToFullHandshake(t *testing.T) {
	w := newTestWorld(t, 0)
	tickets := NewTicketStore()
	tickets.Put(Ticket{ID: 999999, ServerName: "server"}) // never issued
	w.dial(t, ClientConfig{Version: TLS13, Tickets: tickets}, func(c *Conn) {
		if c.Resumed() {
			t.Fatal("bogus ticket accepted")
		}
	})
	w.run(t)
}

func TestEchoThroughTLS(t *testing.T) {
	w := newTestWorld(t, 0)
	msg := bytes.Repeat([]byte("tls echo payload "), 4096) // ~68KB, multiple records
	var got bytes.Buffer
	w.dial(t, ClientConfig{Version: TLS13}, func(c *Conn) {
		c.SetDataFunc(func(p []byte) { got.Write(p) })
		c.Write(msg)
	})
	w.run(t)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("echo mismatch: %d/%d bytes", got.Len(), len(msg))
	}
}

func TestEchoThroughTLSUnderLoss(t *testing.T) {
	w := newTestWorld(t, 0.05)
	msg := bytes.Repeat([]byte("lossy tls "), 8000) // ~80KB
	var got bytes.Buffer
	w.dial(t, ClientConfig{Version: TLS13}, func(c *Conn) {
		c.SetDataFunc(func(p []byte) { got.Write(p) })
		c.Write(msg)
	})
	w.run(t)
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("echo mismatch under loss: %d/%d bytes", got.Len(), len(msg))
	}
}

func TestEarlyDataArrivesWithFirstFlight(t *testing.T) {
	// The whole point of 0-RTT: request bytes reach the server app at
	// ~1.5 RTT total (TCP handshake + one-way), not 2.5.
	r := newRig()
	sched := r.sched
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 25 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(5))
	client := n.AddHost("client")
	server := n.AddHost("server")
	sessions := NewServerSessionState()

	var firstByteAt time.Duration
	if _, err := tcpsim.Listen(server, 443, r.tcpCfg(), func(tc *tcpsim.Conn) {
		var sc *Conn
		sc = Server(tc, r.serverCfg(ServerConfig{Sessions: sessions}), nil)
		sc.SetDataFunc(func(p []byte) {
			if firstByteAt == 0 {
				firstByteAt = sched.Now()
			}
		})
	}); err != nil {
		t.Fatal(err)
	}

	tickets := NewTicketStore()
	start := func(early bool, onReady func(*Conn)) {
		tcpsim.Dial(client, "server", 443, r.tcpCfg(), func(tc *tcpsim.Conn) {
			var cc *Conn
			cc = Client(tc, r.clientCfg(ClientConfig{
				Version: TLS13, ServerName: "server", Tickets: tickets,
				EnableEarlyData: early,
			}), func(err error) {
				if err != nil {
					t.Fatalf("handshake: %v", err)
				}
				onReady(cc)
			})
		})
	}
	start(false, func(c *Conn) {}) // warm the ticket store
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}

	base := sched.Now()
	firstByteAt = 0
	start(true, func(c *Conn) { c.Write([]byte("GET / early")) })
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := firstByteAt - base
	// TCP handshake 50ms + one-way 25ms = 75ms.
	if elapsed != 75*time.Millisecond {
		t.Fatalf("early data reached server after %v, want 75ms", elapsed)
	}
}

func TestHandshakeCPUDelaysCompletion(t *testing.T) {
	r := newRig()
	sched := r.sched
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 25 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(5))
	client := n.AddHost("client")
	server := n.AddHost("server")
	if _, err := tcpsim.Listen(server, 443, r.tcpCfg(), func(tc *tcpsim.Conn) {
		Server(tc, r.serverCfg(ServerConfig{HandshakeCPU: 3 * time.Millisecond}), nil)
	}); err != nil {
		t.Fatal(err)
	}
	var readyAt time.Duration
	tcpsim.Dial(client, "server", 443, r.tcpCfg(), func(tc *tcpsim.Conn) {
		Client(tc, r.clientCfg(ClientConfig{
			Version: TLS13, ServerName: "server", HandshakeCPU: 2 * time.Millisecond,
		}), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			readyAt = sched.Now()
		})
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	// 100ms network + 3ms server CPU + 2ms client CPU.
	if readyAt != 105*time.Millisecond {
		t.Fatalf("ready at %v, want 105ms", readyAt)
	}
}

func TestTicketStoreBasics(t *testing.T) {
	s := NewTicketStore()
	if _, ok := s.Get("x"); ok {
		t.Fatal("empty store returned a ticket")
	}
	s.Put(Ticket{ID: 1, ServerName: "x"})
	s.Put(Ticket{ID: 2, ServerName: "x"}) // replace
	tk, ok := s.Get("x")
	if !ok || tk.ID != 2 {
		t.Fatalf("Get = %+v, %v; want ID 2", tk, ok)
	}
	if len(s.byName) != 1 {
		t.Fatalf("Len = %d, want 1", len(s.byName))
	}
	s.Clear()
	if len(s.byName) != 0 {
		t.Fatal("Clear did not empty the store")
	}
	// Clear keeps the map's storage: refilling a cleared store of the
	// same names allocates nothing.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	refill := func() {
		s.Clear()
		for i, n := range names {
			s.Put(Ticket{ID: uint64(i + 1), ServerName: n})
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Fatalf("refilling a cleared store allocated %.1f times", allocs)
	}
}

// TestClientHelloServerNameCopiedOnce: servers on one Pools copy a
// server name out of a ClientHello once; later handshakes naming it
// again reuse that string and allocate nothing. The name never aliases
// the record.
func TestClientHelloServerNameCopiedOnce(t *testing.T) {
	ch := clientHello{version: TLS13, serverName: "edge.example", alpn: "h2"}
	p := make([]byte, ch.fieldsLen())
	ch.put(p)
	pools := &Pools{}
	first, err := decodeClientHello(p, pools)
	if err != nil || first.serverName != ch.serverName || first.alpn != "h2" {
		t.Fatalf("decoded %+v, %v", first, err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		got, err := decodeClientHello(p, pools)
		if err != nil || got.serverName != ch.serverName {
			t.Fatalf("decoded %+v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding a known server name allocated %.1f times", allocs)
	}
	p[12] = 'X' // the first byte of the name in the record
	if first.serverName != ch.serverName {
		t.Fatalf("the decoded name aliases the record: %q", first.serverName)
	}
	if got, _ := decodeClientHello(p, pools); got.serverName != "Xdge.example" {
		t.Fatalf("a new name decoded as %q", got.serverName)
	}
	if got, _ := decodeClientHello(p, nil); got.serverName != "Xdge.example" {
		t.Fatalf("without pools the name decoded as %q", got.serverName)
	}
	p[12] = 'e'
	if got, _ := decodeClientHello(p, pools); got.serverName != ch.serverName {
		t.Fatalf("the first name again decoded as %q", got.serverName)
	}
}

func TestVersionString(t *testing.T) {
	if TLS12.String() != "TLS 1.2" || TLS13.String() != "TLS 1.3" {
		t.Fatal("version strings wrong")
	}
	if Version(9).String() != "TLS ?" {
		t.Fatal("unknown version string wrong")
	}
}
