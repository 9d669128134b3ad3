package httpsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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

// testH1Client is an established H1 client over a TLS connection with no
// peer, with reqs requests issued, logging every event to log.
func testH1Client(reqs int, log *[]string) *h1Client {
	sched := &simnet.Scheduler{}
	tc := tlssim.Client(&nullStream{}, tlssim.ClientConfig{ServerName: "cdn.example"}, nil)
	c := &h1Client{sched: sched, pools: &Pools{}, tls: tc, established: true}
	c.dog.init(sched, c.watchdogFire)
	for i := 0; i < reqs; i++ {
		c.Do(&Request{Host: "cdn.example", Path: fmt.Sprintf("/r%d", i)}, RequestEvents{
			OnHeaders:  func(m ResponseMeta) { *log = append(*log, fmt.Sprintf("H%d %d %d", i, m.Status, m.BodySize)) },
			OnComplete: func() { *log = append(*log, fmt.Sprintf("C%d", i)) },
			OnError:    func(err error) { *log = append(*log, fmt.Sprintf("E%d %v", i, err)) },
		})
	}
	return c
}

// TestH1ClientCountsWithoutBuffering feeds a pipelined response stream —
// a body tail and the next head share deliveries, and bodies are full of
// CRLFs — at every 2-way split and at seeded k-way splits. The event
// sequence must be the unsplit feed's, and the client never carries more
// than the largest response head.
func TestH1ClientCountsWithoutBuffering(t *testing.T) {
	var pl Pools
	var stream []byte
	maxHead := 0
	for _, resp := range []Response{
		{Status: 200, BodySize: 5000, Header: map[string]string{"server": "cloudflare"}},
		{Status: 404, Header: map[string]string{"x-cache": "MISS"}},
		{Status: 200, BodySize: 1, Header: map[string]string{"via": "1.1 varnish", "x-cache": "HIT"}},
		{Status: 206, BodySize: 20000, Header: map[string]string{"server": "ECAcc (nyb/1D2E)"}},
	} {
		head := pl.encodeH1Response(resp)
		maxHead = max(maxHead, len(head))
		stream = append(stream, head...)
		for i := 0; i < resp.BodySize; i++ {
			stream = append(stream, "\r\n\r\nHTTP/1.1 200 OK"[i%18])
		}
	}
	const reqs = 4

	feed := func(pieces [][]byte) []string {
		var log []string
		c := testH1Client(reqs, &log)
		for _, p := range pieces {
			c.onData(p)
			if cap(c.heads.acc) > maxHead {
				t.Fatalf("carried array of %d bytes, largest head is %d", cap(c.heads.acc), maxHead)
			}
		}
		return log
	}
	want := feed([][]byte{stream})
	if len(want) != 2*reqs || slices.ContainsFunc(want, func(e string) bool { return e[0] == 'E' }) {
		t.Fatalf("unsplit feed: %v", want)
	}
	for cut := 0; cut <= len(stream); cut++ {
		if got := feed([][]byte{stream[:cut], stream[cut:]}); !slices.Equal(got, want) {
			t.Fatalf("split at %d: %v, want %v", cut, got, want)
		}
	}
	rng := rand.New(rand.NewSource(30)) //nolint:gosec
	for trial := 0; trial < 300; trial++ {
		cuts := []int{0, len(stream)}
		for k := rng.Intn(40); k > 0; k-- {
			cuts = append(cuts, rng.Intn(len(stream)+1))
		}
		slices.Sort(cuts)
		var pieces [][]byte
		for i := 1; i < len(cuts); i++ {
			pieces = append(pieces, stream[cuts[i-1]:cuts[i]])
		}
		if got := feed(pieces); !slices.Equal(got, want) {
			t.Fatalf("trial %d, cuts %v: %v, want %v", trial, cuts, got, want)
		}
	}
}

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
			sc := newH1ServerConn(tlssim.Server(tr, tlssim.ServerConfig{}, nil), func(*ServerContext, func(Response)) {
				log = append(log, "request")
			}, &Pools{})
			carry, feed = &sc.heads, sc.onData
		} else {
			c := testH1Client(1, &log)
			carry, feed = &c.heads, c.onData
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
