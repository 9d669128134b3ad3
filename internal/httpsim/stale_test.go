package httpsim

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
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
