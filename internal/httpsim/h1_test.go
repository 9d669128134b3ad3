package httpsim

import (
	"bytes"
	"slices"
	"testing"

	"h3cdn/internal/bytestream"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
)

// nullStream is a bytestream.Stream with no peer; it only notes an abort.
type nullStream struct{ aborted bool }

func (*nullStream) Write([]byte)             {}
func (*nullStream) WriteOpaque([]byte, int)  {}
func (*nullStream) SetDataFunc(func([]byte)) {}
func (*nullStream) SetCloseFunc(func(error)) {}
func (*nullStream) Close()                   {}
func (s *nullStream) Abort()                 { s.aborted = true }

// TestH1UnterminatedHeadIsBounded: a peer that never ends its head makes
// neither side carry more than maxHeaderBlock. Past it the client fails
// the request with ErrBadResponse and the server aborts.
func TestH1UnterminatedHeadIsBounded(t *testing.T) {
	chunk := bytes.Repeat([]byte("x-filler: abcdefgh\r\n"), 800) // 16 000 bytes, no blank line
	for _, head := range []string{"HTTP/1.1 200 OK\r\n", "GET / HTTP/1.1\r\n"} {
		server := head[0] == 'G'
		var log []string
		var carry *headCarry
		var feed func([]byte)
		tr := &nullStream{}
		if server {
			sc := newTestServerConn(H1, tr, func(*ServerContext, func(Response)) {
				log = append(log, "request")
			})
			carry, feed = &sc.heads, sc.onData
		} else {
			c, _ := testClient(H1, 1, &log)
			carry, feed = &c.w.(*h1Client).heads, c.onData
		}
		feed([]byte(head))
		for i := 0; i < 5; i++ {
			feed(chunk)
			if len(carry.acc) > maxHeaderBlock {
				t.Fatalf("server=%v: carrying %d bytes after %d chunks", server, len(carry.acc), i+1)
			}
		}
		if !carry.overlong || carry.acc != nil {
			t.Fatalf("server=%v: overlong=%v, carrying %d bytes", server, carry.overlong, len(carry.acc))
		}
		if server && (!tr.aborted || len(log) != 0) {
			t.Fatalf("server: aborted=%v, events %v", tr.aborted, log)
		}
		if !server && !slices.Equal(log, []string{"E0 " + ErrBadResponse.Error()}) {
			t.Fatalf("client: events %v, want E0 %v", log, ErrBadResponse)
		}
	}
}

// newTestServerConn is an established proto server connection record
// over a TLS connection on tr, serving handler.
func newTestServerConn(proto Protocol, tr bytestream.Stream, handler Handler) *serverConn {
	srv := &Server{host: simnet.NewNetwork(&simnet.Scheduler{}, nil, nil).AddHost("server"), cfg: ServerConfig{Handler: handler, Pools: &Pools{}}}
	sc := srv.cfg.Pools.getServerConn(srv)
	sc.tls = tlssim.Server(tr, tlssim.ServerConfig{Sched: srv.host.Scheduler(), Arena: &srv.cfg.Pools.Arena}, nil)
	sc.proto = proto
	sc.tls.SetDataFunc(sc.dataFn)
	return sc
}
