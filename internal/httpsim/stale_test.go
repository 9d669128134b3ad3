package httpsim

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
)

// liveStreams returns the QUIC stream structs of srv's open H3
// connections.
func liveStreams(srv *Server) map[uintptr]bool {
	out := make(map[uintptr]bool)
	conns := reflect.ValueOf(srv.quic).Elem().FieldByName("conns")
	for it := conns.MapRange(); it.Next(); {
		streams := it.Value().Elem().FieldByName("streams")
		for st := streams.MapRange(); st.Next(); {
			out[st.Value().Pointer()] = true
		}
	}
	return out
}

// TestLateH3RespondAfterReuse aborts an H3 connection while its request
// waits in the handler, and opens another one, also waiting, on the same
// Pools. The late respond runs on the dead stream after that: it must
// write nothing — above all not into the waiting request's stream — and
// let the stream struct go, so a third connection reuses it and gets
// exactly its own response.
func TestLateH3RespondAfterReuse(t *testing.T) {
	sched := &simnet.Scheduler{MaxEvents: 2_000_000}
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 50e6}
	}, seqrand.New(3))
	client, server := n.AddHost("client"), n.AddHost("edge.example")
	// The server's own Pools: with one shared Pools the freed struct
	// would go to the next client stream opened, out of this test's view.
	pools := &Pools{}

	// "/wait/<n>" answers n body bytes after 2s, "/b/<n>" at once.
	streamsAt := make(map[string]map[uintptr]bool)
	var srv *Server
	srv, err := StartServer(server, ServerConfig{
		EnableH3: true,
		Pools:    pools,
		Handler: func(ctx *ServerContext, respond func(Response)) {
			path := ctx.Req.Path
			size, _ := strconv.Atoi(path[strings.LastIndex(path, "/")+1:])
			resp := Response{Status: 200, Header: map[string]string{"server": "simcdn"}, BodySize: size}
			streamsAt[path] = liveStreams(srv)
			if strings.HasPrefix(path, "/wait/") {
				sched.After(2*time.Second, func() { respond(resp) })
				return
			}
			respond(resp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, clientPools := &hWorld{sched: sched}, &Pools{}
	dial := func() ClientConn {
		return DialH3(client, "edge.example", QUICPort, "edge.example", H3DialConfig{Pools: clientPools})
	}

	dead := dial()
	deadReq := w.get(dead, "edge.example", "/wait/5000")
	sched.At(200*time.Millisecond, dead.Abort)
	var waiting, reuser *timing
	sched.At(300*time.Millisecond, func() { waiting = w.get(dial(), "edge.example", "/wait/777") })
	sched.At(3*time.Second, func() { reuser = w.get(dial(), "edge.example", "/b/333") })
	w.run(t)

	if deadReq.done != 0 || deadReq.firstByte != 0 {
		t.Fatal("the aborted connection's request got a response")
	}
	for _, c := range []struct {
		tm   *timing
		size int
	}{{waiting, 777}, {reuser, 333}} {
		if c.tm.err != nil || c.tm.done == 0 || c.tm.meta.Status != 200 || c.tm.meta.BodySize != c.size {
			t.Fatalf("request for %d bytes: err %v, done %v, meta %+v", c.size, c.tm.err, c.tm.done, c.tm.meta)
		}
	}
	deadStreams := streamsAt["/wait/5000"]
	if len(deadStreams) != 1 {
		t.Fatalf("%d live streams at the first dispatch, want 1", len(deadStreams))
	}
	for st := range deadStreams {
		if streamsAt["/wait/777"][st] {
			t.Fatal("the waiting request took the held stream's struct")
		}
		if !streamsAt["/b/333"][st] {
			t.Fatal("the late respond's stream struct was not reused")
		}
	}
}

// TestLateRespondAfterReuse is TestLateH3RespondAfterReuse for HTTP/1.1
// and HTTP/2: a connection aborts while its request waits in the
// handler, and the next connection takes its server record, also with a
// request waiting. The aborted request's responder fires first: it must
// write nothing — above all not into the new occupant's TLS stream —
// and the new request must get exactly its own response.
func TestLateRespondAfterReuse(t *testing.T) {
	for _, proto := range []Protocol{H1, H2} {
		t.Run(proto.String(), func(t *testing.T) {
			sched := &simnet.Scheduler{MaxEvents: 2_000_000}
			n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
				return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 50e6}
			}, seqrand.New(3))
			client, server := n.AddHost("client"), n.AddHost("edge.example")

			// "/wait/<n>" answers n body bytes 2 s after dispatch; ctxAt
			// notes each request's context, which lives in its record.
			ctxAt := make(map[string]*ServerContext)
			_, err := StartServer(server, ServerConfig{
				Pools: &Pools{},
				Handler: func(ctx *ServerContext, respond func(Response)) {
					path := ctx.Req.Path
					ctxAt[path] = ctx
					size, _ := strconv.Atoi(path[strings.LastIndex(path, "/")+1:])
					ctx.Responder(respond).After(sched, 2*time.Second, Response{Status: 200, Header: map[string]string{"server": "simcdn"}, BodySize: size})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			w, clientPools := &hWorld{sched: sched}, &Pools{}
			dial := func() ClientConn {
				if proto == H1 {
					return DialH1(client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: clientPools})
				}
				return DialH2(client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: clientPools})
			}

			dead := dial()
			deadReq := w.get(dead, "edge.example", "/wait/5000")
			sched.At(200*time.Millisecond, dead.Abort)
			var next *timing
			sched.At(300*time.Millisecond, func() { next = w.get(dial(), "edge.example", "/wait/777") })
			w.run(t)

			if deadReq.done != 0 || deadReq.firstByte != 0 {
				t.Fatal("the aborted connection's request got a response")
			}
			if ctxAt["/wait/777"] != ctxAt["/wait/5000"] {
				t.Fatal("the second connection did not reuse the aborted one's server record")
			}
			if next.err != nil || next.done == 0 || next.meta.Status != 200 || next.meta.BodySize != 777 {
				t.Fatalf("reused record: err %v, done %v, meta %+v", next.err, next.done, next.meta)
			}
		})
	}
}

// TestLateRespondIntoSharedTLSConn: the browser and the servers of a
// universe draw TLS conns from one recycler, and a client draws its conn
// at TCP connect, before any server accept could reset a retired server
// record. A connection aborts while its request waits in the handler;
// its server record retires and its TLS conn is at once handed to a new
// client connection, to another host. The late answer then fires: it
// must write nothing into that conn, whose peer must receive exactly the
// new client's own request.
func TestLateRespondIntoSharedTLSConn(t *testing.T) {
	for _, proto := range []Protocol{H1, H2} {
		t.Run(proto.String(), func(t *testing.T) {
			sched := &simnet.Scheduler{MaxEvents: 2_000_000}
			n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
				return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 50e6}
			}, seqrand.New(3))
			client, server, other := n.AddHost("client"), n.AddHost("edge.example"), n.AddHost("other.example")
			shared := &Pools{}

			// The dead connection's TLS conn, noted at dispatch.
			var deadTLS *tlssim.Conn
			_, err := StartServer(server, ServerConfig{
				Pools: shared,
				Handler: func(ctx *ServerContext, respond func(Response)) {
					deadTLS = ctx.responder.to.(*serverConn).tls
					ctx.Responder(respond).After(sched, 2*time.Second, Response{Status: 200, Header: map[string]string{"server": "simcdn"}, BodySize: 5000})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// other.example counts the application bytes it receives and
			// never answers.
			var got int
			if _, err := tcpsim.Listen(other, TCPPort, tcpsim.Config{Pools: &shared.TCP, Arena: &shared.Arena}, func(tc *tcpsim.Conn) {
				tlssim.Server(tc, tlssim.ServerConfig{Sched: sched, Arena: &shared.Arena}, nil).SetDataFunc(func(p []byte) { got += len(p) })
			}); err != nil {
				t.Fatal(err)
			}
			w := &hWorld{sched: sched}
			dial := func(host string) ClientConn {
				if proto == H1 {
					return DialH1(client, simnet.Addr(host), TCPPort, host, DialConfig{Pools: shared})
				}
				return DialH2(client, simnet.Addr(host), TCPPort, host, DialConfig{Pools: shared})
			}

			dead := dial("edge.example")
			deadReq := w.get(dead, "edge.example", "/wait/5000")
			sched.At(200*time.Millisecond, dead.Abort)
			var occupant ClientConn
			sched.At(300*time.Millisecond, func() {
				occupant = dial("other.example")
				w.get(occupant, "other.example", "/never")
			})
			var own int
			sched.At(time.Second, func() { own = got })
			sched.At(5*time.Second, func() { occupant.Abort() })
			w.run(t)

			if deadReq.done != 0 || deadReq.firstByte != 0 {
				t.Fatal("the aborted connection's request got a response")
			}
			var occTLS *tlssim.Conn
			switch c := occupant.(type) {
			case *h1Client:
				occTLS = c.tls
			case *h2Client:
				occTLS = c.tls
			}
			if deadTLS == nil || occTLS != deadTLS {
				t.Fatal("the new client connection did not draw the retired server connection's TLS conn")
			}
			if own == 0 || got != own {
				t.Fatalf("other.example received %d bytes by 1s, its client's request, and %d in all: the late answer was written into the new occupant", own, got)
			}
		})
	}
}

// TestDialOutlivesRelease: an H2 client released while its TCP dial is
// still in flight keeps its record until the dial has reported back —
// TCP connects, TLS runs its handshake, and the handshake callback
// aborts the late connection — so a dial in the meantime gets another
// record, and one after gets this one and works.
func TestDialOutlivesRelease(t *testing.T) {
	w := newHWorld(t, 10*time.Millisecond, 0, 0, 0)
	pools := &Pools{}
	dial := func() ClientConn {
		return DialH2(w.client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: pools})
	}
	released := dial()
	released.Release()
	meanwhile := dial()
	if meanwhile == released {
		t.Fatal("a record still dialing was handed out again")
	}
	var after ClientConn
	var tm *timing
	w.sched.At(time.Second, func() {
		after = dial()
		tm = w.get(after, "edge.example", "/b/4321")
	})
	w.run(t)
	if after != released {
		t.Fatal("the released record was not recycled once its dial had reported back")
	}
	if tm.err != nil || tm.done == 0 || tm.meta.BodySize != 4321 {
		t.Fatalf("request on the recycled record: err %v, done %v, meta %+v", tm.err, tm.done, tm.meta)
	}
	if w.srv.tcp.ConnCount() != 2 {
		t.Fatalf("%d server TCP conns, want the two open clients': the late connection was not aborted", w.srv.tcp.ConnCount())
	}
}

// TestOrphanServerConnLeftToCollector: a client resets its connection
// while the path to the server is down, so the server never learns the
// connection ended (DESIGN.md §4.17's orphan). Its record must not be
// recycled — it is left to the collector — and a new connection on the
// same server gets a record of its own and exactly its own response.
func TestOrphanServerConnLeftToCollector(t *testing.T) {
	sched := &simnet.Scheduler{MaxEvents: 2_000_000}
	down := &simnet.Impairment{Outages: []simnet.Outage{{Start: 150 * time.Millisecond, End: 250 * time.Millisecond}}}
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		props := simnet.PathProps{Delay: 10 * time.Millisecond}
		if dst == "edge.example" {
			props.Impair = down
		}
		return props
	}, seqrand.New(3))
	client, server := n.AddHost("client"), n.AddHost("edge.example")
	ctxAt := make(map[string]*ServerContext)
	handler := sizeHandler(sched, 0)
	srv, err := StartServer(server, ServerConfig{
		Pools: &Pools{},
		Handler: func(ctx *ServerContext, respond func(Response)) {
			ctxAt[ctx.Req.Path] = ctx
			handler(ctx, respond)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, clientPools := &hWorld{sched: sched}, &Pools{}
	dial := func() ClientConn {
		return DialH2(client, "edge.example", TCPPort, "edge.example", DialConfig{Pools: clientPools})
	}
	orphaned := dial()
	first := w.get(orphaned, "edge.example", "/b/100")
	sched.At(200*time.Millisecond, orphaned.Abort)
	var next *timing
	sched.At(400*time.Millisecond, func() { next = w.get(dial(), "edge.example", "/b/200") })
	w.run(t)

	if first.done == 0 || next.err != nil || next.done == 0 || next.meta.BodySize != 200 {
		t.Fatalf("first done %v; next: err %v, done %v, meta %+v", first.done, next.err, next.done, next.meta)
	}
	if srv.tcp.ConnCount() != 2 {
		t.Fatalf("%d server TCP conns, want the orphan and the live one", srv.tcp.ConnCount())
	}
	if ctxAt["/b/200"] == ctxAt["/b/100"] {
		t.Fatal("the orphan's server record was recycled")
	}
}
