package httpsim

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
)

// sizeHandler serves bodies whose size is encoded in the path: "/b/<n>";
// "/bad/<n>" answers with a malformed (negative) status. It tags
// responses with a synthetic CDN header so header passage is testable.
func sizeHandler(sched *simnet.Scheduler, wait time.Duration) Handler {
	return func(ctx *ServerContext, respond func(Response)) {
		n := 0
		if i := strings.LastIndex(ctx.Req.Path, "/"); i >= 0 {
			n, _ = strconv.Atoi(ctx.Req.Path[i+1:])
		}
		resp := Response{
			Status:   200,
			Header:   map[string]string{"server": "simcdn", "x-proto": ctx.Protocol.String()},
			BodySize: n,
		}
		if strings.HasPrefix(ctx.Req.Path, "/bad/") {
			resp.Status = -1
		}
		if wait == 0 {
			respond(resp)
			return
		}
		sched.After(wait, func() { respond(resp) })
	}
}

// hWorld is a client and an edge server on one scheduler and one Pools,
// as a universe's endpoints are.
type hWorld struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	client *simnet.Host
	server *simnet.Host
	tlsS   *tlssim.ServerSessionState
	quicS  *quicsim.ServerSessions
	pools  *Pools
	srv    *Server
}

func newHWorld(t *testing.T, delay time.Duration, bps, loss float64, wait time.Duration) *hWorld {
	t.Helper()
	sched := &simnet.Scheduler{MaxEvents: 10_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: delay, BandwidthBps: bps, LossRate: loss}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(31))
	w := &hWorld{
		sched:  sched,
		net:    n,
		client: n.AddHost("client"),
		server: n.AddHost("edge.example"),
		tlsS:   tlssim.NewServerSessionState(),
		quicS:  quicsim.NewServerSessions(),
		pools:  &Pools{},
	}
	srv, err := StartServer(w.server, ServerConfig{
		Handler:      sizeHandler(sched, wait),
		TLSSessions:  w.tlsS,
		QUICSessions: w.quicS,
		EnableH3:     true,
		Pools:        w.pools,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.srv = srv
	return w
}

func (w *hWorld) run(t *testing.T) {
	t.Helper()
	if _, err := w.sched.Run(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}
}

func (w *hWorld) dial(proto Protocol) ClientConn {
	switch proto {
	case H1:
		return DialH1(w.client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: w.pools})
	case H2:
		return DialH2(w.client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: w.pools})
	default:
		return DialH3(w.client, "edge.example", QUICPort, "edge.example", H3DialConfig{Pools: w.pools})
	}
}

type timing struct {
	sent, firstByte, done time.Duration
	meta                  ResponseMeta
	err                   error
}

func (w *hWorld) get(conn ClientConn, host, path string) *timing {
	tm := &timing{}
	conn.Do(&Request{Host: host, Path: path}, RequestEvents{
		OnSent:     func() { tm.sent = w.sched.Now() },
		OnHeaders:  func(m ResponseMeta) { tm.firstByte = w.sched.Now(); tm.meta = m },
		OnComplete: func() { tm.done = w.sched.Now() },
		OnError:    func(err error) { tm.err = err },
	})
	return tm
}

func TestRequestResponseAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{H1, H2, H3} {
		w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
		conn := w.dial(proto)
		tm := w.get(conn, "edge.example", "/b/5000")
		w.run(t)
		if tm.err != nil {
			t.Fatalf("%v: error %v", proto, tm.err)
		}
		if tm.done == 0 || tm.meta.Status != 200 || tm.meta.BodySize != 5000 {
			t.Fatalf("%v: timing=%+v meta=%+v", proto, tm, tm.meta)
		}
		if tm.meta.Header["server"] != "simcdn" {
			t.Fatalf("%v: headers not passed through: %v", proto, tm.meta.Header)
		}
		if tm.meta.Header["x-proto"] != proto.String() {
			t.Fatalf("%v: server saw protocol %q", proto, tm.meta.Header["x-proto"])
		}
	}
}

func TestFirstByteLatencyByProtocol(t *testing.T) {
	// 25ms one-way => RTT 50ms; no bandwidth or server wait.
	// H2 (TLS 1.3): TCP 1 RTT + TLS 1 RTT + req/resp 1 RTT = 150ms.
	// H3: QUIC 1 RTT + req/resp 1 RTT = 100ms.
	firstByte := func(proto Protocol) time.Duration {
		w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
		conn := w.dial(proto)
		tm := w.get(conn, "edge.example", "/b/100")
		w.run(t)
		if tm.err != nil {
			t.Fatalf("%v: %v", proto, tm.err)
		}
		return tm.firstByte
	}
	if got := firstByte(H2); got != 150*time.Millisecond {
		t.Fatalf("H2 first byte = %v, want 150ms", got)
	}
	if got := firstByte(H3); got != 100*time.Millisecond {
		t.Fatalf("H3 first byte = %v, want 100ms", got)
	}
	if got := firstByte(H1); got != 150*time.Millisecond {
		t.Fatalf("H1 first byte = %v, want 150ms", got)
	}
}

func TestH3ZeroRTTSecondConnection(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	tokens := quicsim.NewTokenStore()
	c1 := DialH3(w.client, "edge.example", QUICPort, "edge.example", H3DialConfig{Pools: w.pools, Tokens: tokens})
	w.get(c1, "edge.example", "/b/100")
	w.run(t)
	c1.Close()
	w.run(t)

	base := w.sched.Now()
	c2 := DialH3(w.client, "edge.example", QUICPort, "edge.example", H3DialConfig{Pools: w.pools, Tokens: tokens, EnableZeroRTT: true})
	tm := w.get(c2, "edge.example", "/b/100")
	w.run(t)
	if tm.err != nil {
		t.Fatal(tm.err)
	}
	if !c2.Resumed() {
		t.Fatal("second H3 connection not resumed")
	}
	if c2.HandshakeDuration() != 0 {
		t.Fatalf("0-RTT handshake duration = %v", c2.HandshakeDuration())
	}
	// First byte after exactly one RTT: request rode the first flight.
	if got := tm.firstByte - base; got != 50*time.Millisecond {
		t.Fatalf("0-RTT first byte after %v, want 50ms", got)
	}
}

func TestH2TLSResumptionEarlyData(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	tickets := tlssim.NewTicketStore()
	cfg := DialConfig{Pools: w.pools, TLSTickets: tickets, EnableEarlyData: true}
	c1 := DialH2(w.client, "edge.example", TCPPort, "edge.example", cfg)
	w.get(c1, "edge.example", "/b/100")
	w.run(t)
	c1.Close()
	w.run(t)

	base := w.sched.Now()
	c2 := DialH2(w.client, "edge.example", TCPPort, "edge.example", cfg)
	tm := w.get(c2, "edge.example", "/b/100")
	w.run(t)
	if tm.err != nil {
		t.Fatal(tm.err)
	}
	if !c2.Resumed() {
		t.Fatal("second H2 connection not resumed")
	}
	// TCP 1 RTT + 0-RTT TLS + req/resp 1 RTT = 100ms: H2 resumption
	// still pays the TCP handshake (the paper's §VI-D point).
	if got := tm.firstByte - base; got != 100*time.Millisecond {
		t.Fatalf("resumed H2 first byte after %v, want 100ms", got)
	}
}

func TestServerWaitShowsUpInFirstByte(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 30*time.Millisecond)
	conn := w.dial(H3)
	tm := w.get(conn, "edge.example", "/b/100")
	w.run(t)
	if tm.err != nil {
		t.Fatal(tm.err)
	}
	if got := tm.firstByte; got != 130*time.Millisecond {
		t.Fatalf("first byte = %v, want 130ms (100 network + 30 server wait)", got)
	}
}

func TestH1SerializesRequests(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	conn := w.dial(H1)
	a := w.get(conn, "edge.example", "/b/1000")
	b := w.get(conn, "edge.example", "/b/1000")
	w.run(t)
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v %v", a.err, b.err)
	}
	if b.sent < a.done {
		t.Fatalf("H1 pipelined: b sent at %v before a done at %v", b.sent, a.done)
	}
}

func TestH2MultiplexesRequests(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	conn := w.dial(H2)
	a := w.get(conn, "edge.example", "/b/1000")
	b := w.get(conn, "edge.example", "/b/1000")
	w.run(t)
	if a.err != nil || b.err != nil {
		t.Fatalf("errors: %v %v", a.err, b.err)
	}
	if a.sent != b.sent {
		t.Fatalf("H2 did not multiplex: sent at %v and %v", a.sent, b.sent)
	}
	if a.done != b.done {
		t.Fatalf("equal-size responses finished apart: %v vs %v", a.done, b.done)
	}
}

func TestManyRequestsAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{H1, H2, H3} {
		w := newHWorld(t, 10*time.Millisecond, 50e6, 0.01, time.Millisecond)
		conn := w.dial(proto)
		const reqs = 30
		tms := make([]*timing, reqs)
		for i := 0; i < reqs; i++ {
			tms[i] = w.get(conn, "edge.example", "/b/"+strconv.Itoa(2000+i*100))
		}
		w.run(t)
		for i, tm := range tms {
			if tm.err != nil {
				t.Fatalf("%v req %d: %v", proto, i, tm.err)
			}
			if tm.done == 0 {
				t.Fatalf("%v req %d never completed", proto, i)
			}
			if tm.meta.BodySize != 2000+i*100 {
				t.Fatalf("%v req %d: body %d", proto, i, tm.meta.BodySize)
			}
		}
	}
}

// TestH2HoLBlockingVsH3 is the core protocol contrast of the paper: on
// H2, a lost TCP segment carrying response A delays the logically
// unrelated response B; on H3, B is unaffected.
func TestH2HoLBlockingVsH3(t *testing.T) {
	bDone := func(proto Protocol, drop bool) time.Duration {
		w := newHWorld(t, 20*time.Millisecond, 0, 0, 0)
		dropped := false
		if drop {
			cum := 0
			w.net.SetFilter(func(pkt simnet.Packet) bool {
				if pkt.Src != "edge.example" {
					return true
				}
				cum += pkt.Size
				// Drop the first large server packet past the
				// ~3KB handshake flight: response A's first
				// body-bearing segment/packet.
				if !dropped && pkt.Size > 1000 && cum > 4200 {
					dropped = true
					return false
				}
				return true
			})
		}
		conn := w.dial(proto)
		w.get(conn, "edge.example", "/b/60000")    // response A: large
		b := w.get(conn, "edge.example", "/b/200") // response B: small
		w.run(t)
		if b.err != nil {
			t.Fatalf("%v: %v", proto, b.err)
		}
		if !drop && !dropped {
			_ = dropped
		}
		return b.done
	}

	h2Clean := bDone(H2, false)
	h2Drop := bDone(H2, true)
	if h2Drop <= h2Clean {
		t.Fatalf("H2: dropping A's segment did not delay B (clean=%v drop=%v); expected HoL blocking", h2Clean, h2Drop)
	}

	h3Clean := bDone(H3, false)
	h3Drop := bDone(H3, true)
	if h3Drop != h3Clean {
		t.Fatalf("H3: B delayed by A's loss (clean=%v drop=%v); streams not independent", h3Clean, h3Drop)
	}
}

// TestConnAbortFailsInFlight closes or aborts a connection while its
// request waits in the server's handler: the request must get exactly
// one OnError(ErrConnClosed) and never complete.
func TestConnAbortFailsInFlight(t *testing.T) {
	for _, proto := range []Protocol{H1, H2, H3} {
		for _, abort := range []bool{false, true} {
			w := newHWorld(t, 25*time.Millisecond, 0, 0, 200*time.Millisecond)
			conn := w.dial(proto)
			var completed int
			var errs []error
			conn.Do(&Request{Host: "edge.example", Path: "/b/100"}, RequestEvents{
				OnComplete: func() { completed++ },
				OnError:    func(err error) { errs = append(errs, err) },
			})
			end := conn.Close
			if abort {
				end = conn.Abort
			}
			w.sched.After(120*time.Millisecond, end)
			w.run(t)
			if completed != 0 || len(errs) != 1 || !errors.Is(errs[0], ErrConnClosed) {
				t.Fatalf("%v, abort=%v: %d completions, errors %v; want one ErrConnClosed", proto, abort, completed, errs)
			}
		}
	}
}

func TestInFlightAccounting(t *testing.T) {
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	conn := w.dial(H2)
	w.get(conn, "edge.example", "/b/100")
	w.get(conn, "edge.example", "/b/100")
	if conn.InFlight() != 2 {
		t.Fatalf("InFlight = %d before run, want 2", conn.InFlight())
	}
	w.run(t)
	if conn.InFlight() != 0 {
		t.Fatalf("InFlight = %d after run, want 0", conn.InFlight())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := map[string]string{"server": "cloudflare", "via": "1.1 varnish", "x-cache": "HIT"}
	wire, _ := appendHeaderLines(nil, h, nil)
	got := decodeHeaders(wire)
	if len(got) != len(h) {
		t.Fatalf("round trip: %v", got)
	}
	for k, v := range h {
		if got[k] != v {
			t.Fatalf("key %q: %q != %q", k, got[k], v)
		}
	}
}

// TestBlockParserFragmentation is the split-point property: however the
// wire image is cut, the parser yields the same blocks, and each on the
// feed that carries its last byte — a DATA block as a size, its payload
// counted and never buffered.
func TestBlockParserFragmentation(t *testing.T) {
	type parsed struct {
		typ      blockType
		streamID uint32
		flags    uint8
		size     int
		payload  string
		end      int // wire offset just past the block
	}
	var wire sink
	var want []parsed
	arena := &bufpool.Arena{}
	add := func(typ blockType, id uint32, flags uint8, payload string) {
		writeBlock(arena, &wire, typ, id, flags, []byte(payload))
		b := parsed{typ: typ, streamID: id, flags: flags, size: len(payload), end: len(wire)}
		if typ != blockData {
			b.payload = payload
		}
		want = append(want, b)
	}
	add(blockHeadersResp, 7, 0, ":status: 200\r\ncontent-length: 106\r\n")
	add(blockData, 7, 0, strings.Repeat("d", 100)) // longer than any header block
	add(blockData, 7, 0, "")
	add(blockData, 9, 0, "x")
	add(blockData, 7, flagEndStream, "tail!")
	add(blockHeadersResp, 9, flagEndStream, ":status: 304\r\ncontent-length: 0\r\n")

	// run feeds the wire cut at the given offsets and checks the blocks
	// and the feed each one came out of.
	run := func(name string, cuts ...int) {
		var p blockParser
		var got []parsed
		start := 0
		for _, end := range append(cuts, len(wire)) {
			for _, b := range p.feed(wire[start:end]) {
				if b.typ == blockData && b.payload != nil {
					t.Fatalf("%s: DATA block carries a payload: %+v", name, b)
				}
				if next := len(got); next < len(want) && (want[next].end <= start || want[next].end > end) {
					t.Fatalf("%s: block %d (ends at %d) emitted by feed [%d,%d)", name, next, want[next].end, start, end)
				}
				got = append(got, parsed{b.typ, b.streamID, b.flags, b.size, string(b.payload), 0})
			}
			if held := len(p.acc) - p.off; held > blockHeaderSize+len(want[0].payload) {
				t.Fatalf("%s: parser holds %d bytes after feed [%d,%d) — a DATA payload was buffered", name, held, start, end)
			}
			start = end
		}
		if len(got) != len(want) {
			t.Fatalf("%s: parsed %d blocks, want %d", name, len(got), len(want))
		}
		for i, w := range want {
			w.end = 0
			if got[i] != w {
				t.Fatalf("%s: block %d = %+v, want %+v", name, i, got[i], w)
			}
		}
	}
	run("whole")
	every := make([]int, 0, len(wire))
	for off := 1; off < len(wire); off++ {
		every = append(every, off)
		run(fmt.Sprintf("cut@%d", off), off)
	}
	run("byte-by-byte", every...)
}

// TestOverlongHeaderBlockIsRefused is the hostile-length rule end to end:
// a non-DATA block announcing more than maxHeaderBlock fails a client's
// requests with ErrBadResponse and makes a server abort the connection,
// on H2 and on H3, instead of buffering towards the announced 4 GB.
func TestOverlongHeaderBlockIsRefused(t *testing.T) {
	hostile := func(typ blockType) []byte {
		buf := make([]byte, blockHeaderSize+64)
		putBlockHeader(buf, typ, 1, 0, maxHeaderBlock+1)
		return buf
	}
	const evil = "evil.example"
	for _, proto := range []Protocol{H2, H3} {
		w := newHWorld(t, 5*time.Millisecond, 0, 0, 0)

		// A server that answers any request with an overlong HEADERS.
		bad := w.net.AddHost(evil)
		var conn ClientConn
		if proto == H2 {
			if _, err := tcpsim.Listen(bad, TCPPort, tcpsim.Config{Pools: &w.pools.TCP, Arena: &w.pools.Arena}, func(tc *tcpsim.Conn) {
				var tconn *tlssim.Conn
				tconn = tlssim.Server(tc, tlssim.ServerConfig{Sched: w.sched, Arena: &w.pools.Arena}, nil)
				tconn.SetDataFunc(func([]byte) { tconn.Write(hostile(blockHeadersResp)) })
			}); err != nil {
				t.Fatal(err)
			}
			conn = DialH2(w.client, evil, TCPPort, evil, DialConfig{Pools: w.pools})
		} else {
			if _, err := quicsim.Listen(bad, QUICPort, quicsim.ServerConfig{Config: quicsim.Config{Pools: &w.pools.QUIC}}, func(qc *quicsim.Conn) {
				qc.SetStreamFunc(func(st *quicsim.Stream) {
					st.SetDataFunc(func([]byte) { st.Write(hostile(blockHeadersResp)) })
				})
			}); err != nil {
				t.Fatal(err)
			}
			conn = DialH3(w.client, evil, QUICPort, evil, H3DialConfig{Pools: w.pools})
		}
		tm := w.get(conn, evil, "/b/100")

		// A client that sends the real server an overlong HEADERS.
		var closed bool
		var closeErr error
		onClose := func(err error) { closed, closeErr = true, err }
		if proto == H2 {
			tcpsim.Dial(w.client, "edge.example", TCPPort, tcpsim.Config{Pools: &w.pools.TCP, Arena: &w.pools.Arena}, func(tc *tcpsim.Conn) {
				var tconn *tlssim.Conn
				tconn = tlssim.Client(tc, tlssim.ClientConfig{ServerName: "edge.example", ALPN: H2.ALPN(), Sched: w.sched, Arena: &w.pools.Arena}, func(err error) {
					if err != nil {
						t.Errorf("handshake: %v", err)
						return
					}
					tconn.SetCloseFunc(onClose)
					tconn.Write(hostile(blockHeadersReq))
				})
			})
		} else {
			qc := quicsim.Dial(w.client, "edge.example", QUICPort, quicsim.ClientConfig{Config: quicsim.Config{Pools: &w.pools.QUIC}, ServerName: "edge.example"}, func(qc *quicsim.Conn) {
				qc.OpenStream().Write(hostile(blockHeadersReq))
			})
			qc.SetCloseFunc(onClose)
		}
		w.run(t)

		if !errors.Is(tm.err, ErrBadResponse) {
			t.Errorf("%v client: err = %v, want ErrBadResponse", proto, tm.err)
		}
		if !closed || closeErr == nil {
			t.Errorf("%v server: connection not aborted (closed=%v err=%v)", proto, closed, closeErr)
		}
	}
}

func TestProtocolStrings(t *testing.T) {
	if H1.String() != "http/1.1" || H2.String() != "h2" || H3.String() != "h3" {
		t.Fatal("protocol strings wrong")
	}
	if Protocol(9).String() != "http/?" {
		t.Fatal("unknown protocol string wrong")
	}
}

func TestRequestHeaderBlockRoundTrip(t *testing.T) {
	req := &Request{Host: "cdn.example", Path: "/a/b.js"}
	var pl Pools
	if got := pl.parseRequestBlock(pl.requestHeaderBlock(req)); got != *req {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestRequestEncodingUnchanged: the request encoders write the header
// lines that requests used to carry in a map — the browser's constant
// accept and user-agent — so H1 heads and H2/H3 header blocks are the
// bytes they were, framed blocks included, and every request costs the
// wire what it did.
func TestRequestEncodingUnchanged(t *testing.T) {
	browserHeader := map[string]string{"accept": "*/*", "user-agent": "simbrowser/1.0"}
	// The encoders as they were, serializing the map.
	mapH1 := func(req *Request) []byte {
		dst := fmt.Appendf(nil, "GET %s HTTP/1.1\r\nhost: %s\r\n", req.Path, req.Host)
		dst, _ = appendHeaderLines(dst, browserHeader, nil)
		return append(dst, "\r\n"...)
	}
	mapBlock := func(req *Request) []byte {
		dst := fmt.Appendf(nil, ":authority: %s\r\n:path: %s\r\n", req.Host, req.Path)
		dst, _ = appendHeaderLines(dst, browserHeader, nil)
		return dst
	}
	var pl Pools
	for _, req := range []*Request{
		{Host: "cdn.example", Path: "/a/b.js"},
		{Host: "origin.site-17.example", Path: "/"},
		{Host: "", Path: ""},
	} {
		if got, want := pl.encodeH1Request(req), mapH1(req); !bytes.Equal(got, want) {
			t.Fatalf("h1 %+v:\n got %q\nwant %q", req, got, want)
		}
		for _, proto := range []struct {
			name   string
			stream uint32
		}{{"h2", 7}, {"h3", 0}} {
			var got, want sink
			arena := &bufpool.Arena{}
			writeBlock(arena, &got, blockHeadersReq, proto.stream, flagEndStream, pl.requestHeaderBlock(req))
			writeBlock(arena, &want, blockHeadersReq, proto.stream, flagEndStream, mapBlock(req))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %+v:\n got %q\nwant %q", proto.name, req, got, want)
			}
		}
	}
}

// TestServerRequestParseAllocs pins what a server request costs: a head
// or block whose values the universe has seen parses without
// allocating, and a new path costs one string.
func TestServerRequestParseAllocs(t *testing.T) {
	var pl Pools
	h1 := []byte("GET /a/b.js HTTP/1.1\r\nhost: cdn.example\r\naccept: */*")
	block := bytes.Clone(pl.requestHeaderBlock(&Request{Host: "cdn.example", Path: "/a/b.js"}))
	if n := testing.AllocsPerRun(100, func() { pl.parseH1Head(h1) }); n != 0 {
		t.Errorf("h1 head parsed again: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { pl.parseRequestBlock(block) }); n != 0 {
		t.Errorf("h2/h3 block parsed again: %v allocs, want 0", n)
	}

	var fresh [][]byte
	for i := range 101 {
		fresh = append(fresh, fmt.Appendf(nil, ":authority: cdn.example\r\n:path: /new/%d\r\n", i))
	}
	next := 0
	n := testing.AllocsPerRun(100, func() {
		pl.parseRequestBlock(fresh[next])
		next++
	})
	if n != 1 {
		t.Errorf("new path: %v allocs, want 1", n)
	}
}

func TestH2OverTLS12IsThreeRTTs(t *testing.T) {
	// The paper's baseline suite: H2 + TLS 1.2 costs 3 RTTs before the
	// request (TCP 1 + TLS 2), so first byte lands at 4 RTTs = 200ms.
	w := newHWorld(t, 25*time.Millisecond, 0, 0, 0)
	conn := DialH2(w.client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: w.pools, TLSVersion: tlssim.TLS12})
	tm := w.get(conn, "edge.example", "/b/100")
	w.run(t)
	if tm.err != nil {
		t.Fatal(tm.err)
	}
	if tm.firstByte != 200*time.Millisecond {
		t.Fatalf("TLS1.2 H2 first byte = %v, want 200ms", tm.firstByte)
	}
}
