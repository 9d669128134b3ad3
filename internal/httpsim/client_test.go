package httpsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"h3cdn/internal/bytestream"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
)

// testClient is an established H1 or H2 client over a TLS connection
// with no peer, with reqs requests issued, logging every event to log.
// carried reports the bytes its response parser holds between
// deliveries: for H1 the capacity of the head carry, which grows to
// exactly what it holds.
func testClient(proto Protocol, reqs int, log *[]string) (c *client, carried func() int) {
	sched, pools := &simnet.Scheduler{}, &Pools{}
	tw := tlsWire{tls: tlssim.Client(&nullStream{}, tlssim.ClientConfig{ServerName: "cdn.example", Sched: sched, Arena: &pools.Arena}, nil)}
	if proto == H1 {
		h := &h1Client{tlsWire: tw}
		h.tlsWire.bind(&h.client, h)
		c, carried = &h.client, func() int { return cap(h.heads.acc) }
	} else {
		h := &h2Client{tlsWire: tw}
		h.tlsWire.bind(&h.client, h)
		c, carried = &h.client, func() int { return len(h.parser.acc) - h.parser.off }
	}
	c.init(sched, proto, pools, nil)
	c.dog.init(sched, c.fireFn)
	c.establish()
	for i := 0; i < reqs; i++ {
		c.Do(&Request{Host: "cdn.example", Path: fmt.Sprintf("/r%d", i)}, RequestEvents{
			OnHeaders:  func(m ResponseMeta) { *log = append(*log, fmt.Sprintf("H%d %d %d", i, m.Status, m.BodySize)) },
			OnComplete: func() { *log = append(*log, fmt.Sprintf("C%d", i)) },
			OnError:    func(err error) { *log = append(*log, fmt.Sprintf("E%d %v", i, err)) },
		})
	}
	return c, carried
}

// bodyFill is what response bodies are made of: framing look-alikes,
// so a parser that inspected body bytes would trip.
const bodyFill = "\r\n\r\nHTTP/1.1 200 OK\x02\x00\x00\x00\x01\x00\x00\x00\x00\x05"

// responseStream is the wire image of resps answering requests 0, 1, ...
// in turn on one H1 or H2 connection, as the servers frame them, its
// largest head or header block, framing included, and which of its
// bytes are body bytes, the ones the servers write opaque.
func responseStream(proto Protocol, resps []Response) (stream []byte, maxHead int, opaque []bool) {
	var pl Pools
	body := func(n int) {
		opaque = append(opaque, make([]bool, len(stream)-len(opaque))...)
		for i := 0; i < n; i++ {
			stream = append(stream, bodyFill[i%len(bodyFill)])
			opaque = append(opaque, true)
		}
	}
	for i, resp := range resps {
		if proto == H1 {
			head := pl.encodeH1Response(resp)
			maxHead = max(maxHead, len(head))
			stream = append(stream, head...)
			body(resp.BodySize)
			continue
		}
		id := uint32(2*i + 1)
		var hdr [blockHeaderSize]byte
		block := pl.responseHeaderBlock(resp)
		flags := uint8(0)
		if resp.BodySize == 0 {
			flags = flagEndStream
		}
		putBlockHeader(hdr[:], blockHeadersResp, id, flags, len(block))
		maxHead = max(maxHead, len(hdr)+len(block))
		stream = append(append(stream, hdr[:]...), block...)
		for left := resp.BodySize; left > 0; {
			n := min(left, bodyChunkSize)
			left -= n
			flags = 0
			if left == 0 {
				flags = flagEndStream
			}
			putBlockHeader(hdr[:], blockData, id, flags, n)
			stream = append(stream, hdr[:]...)
			body(n)
		}
	}
	return stream, maxHead, append(opaque, make([]bool, len(stream)-len(opaque))...)
}

// wantEvents is the event log of resps delivered whole.
func wantEvents(resps []Response) []string {
	var log []string
	for i, r := range resps {
		log = append(log, fmt.Sprintf("H%d %d %d", i, r.Status, r.BodySize), fmt.Sprintf("C%d", i))
	}
	return log
}

// feedCuts feeds stream, cut at the sorted offsets cuts, to a fresh
// client of proto with n requests. With opaque non-nil, every stretch of
// a piece that opaque marks is fed as bytestream.Opaque runs instead, as
// the transports deliver segments that hold no supplied byte. It fails
// t if the client carries more than maxHead bytes between deliveries,
// and returns the log.
func feedCuts(t *testing.T, proto Protocol, n int, stream []byte, cuts []int, maxHead int, opaque []bool) []string {
	t.Helper()
	var log []string
	c, carried := testClient(proto, n, &log)
	prev := 0
	for _, cut := range append(cuts, len(stream)) {
		for _, p := range opaquePieces(stream[:cut], prev, opaque) {
			c.onData(p)
		}
		prev = cut
		if k := carried(); k > maxHead {
			t.Fatalf("%v, cuts %v: carrying %d bytes, largest head is %d", proto, cuts, k, maxHead)
		}
	}
	return log
}

// opaquePieces is stream[from:] as deliveries: one piece when opaque is
// nil, else cut wherever opaque changes, each marked stretch replaced by
// opaque runs of at most a TCP MSS.
func opaquePieces(stream []byte, from int, opaque []bool) [][]byte {
	if opaque == nil {
		return [][]byte{stream[from:]}
	}
	var pieces [][]byte
	for i := from; i < len(stream); {
		j := i
		for j < len(stream) && opaque[j] == opaque[i] && (!opaque[i] || j-i < 1460) {
			j++
		}
		if opaque[i] {
			pieces = append(pieces, bytestream.Opaque(j-i))
		} else {
			pieces = append(pieces, stream[i:j])
		}
		i = j
	}
	return pieces
}

// clientResponses are the responses TestClientCountsWithoutBuffering
// feeds and the seeds of FuzzClientResponses.
var clientResponses = []Response{
	{Status: 200, BodySize: 5000, Header: map[string]string{"server": "cloudflare"}},
	{Status: 404, Header: map[string]string{"x-cache": "MISS"}},
	{Status: 200, BodySize: 1, Header: map[string]string{"via": "1.1 varnish", "x-cache": "HIT"}},
	{Status: 206, BodySize: 20000, Header: map[string]string{"server": "ECAcc (nyb/1D2E)"}},
}

// TestClientCountsWithoutBuffering feeds an H1 and an H2 response
// stream — a body tail and the next head share deliveries, and bodies
// are full of framing look-alikes — at every 2-way split and at seeded
// k-way splits. The event sequence must be the unsplit feed's, and the
// client never carries more than the largest head or header block.
func TestClientCountsWithoutBuffering(t *testing.T) {
	want := wantEvents(clientResponses)
	for _, proto := range []Protocol{H1, H2} {
		stream, maxHead, _ := responseStream(proto, clientResponses)
		n := len(clientResponses)
		if got := feedCuts(t, proto, n, stream, nil, maxHead, nil); !slices.Equal(got, want) {
			t.Fatalf("%v unsplit feed: %v, want %v", proto, got, want)
		}
		for cut := 0; cut <= len(stream); cut++ {
			if got := feedCuts(t, proto, n, stream, []int{cut}, maxHead, nil); !slices.Equal(got, want) {
				t.Fatalf("%v split at %d: %v, want %v", proto, cut, got, want)
			}
		}
		rng := rand.New(rand.NewSource(30)) //nolint:gosec
		for trial := 0; trial < 300; trial++ {
			var cuts []int
			for k := rng.Intn(40); k > 0; k-- {
				cuts = append(cuts, rng.Intn(len(stream)+1))
			}
			slices.Sort(cuts)
			if got := feedCuts(t, proto, n, stream, cuts, maxHead, nil); !slices.Equal(got, want) {
				t.Fatalf("%v trial %d, cuts %v: %v, want %v", proto, trial, cuts, got, want)
			}
		}
	}
}

// fuzzHeaderSets are the header maps a fuzzed response picks from.
var fuzzHeaderSets = []map[string]string{
	clientResponses[0].Header, clientResponses[1].Header, clientResponses[2].Header, clientResponses[3].Header,
	{},
	{"server": "AmazonS3", "via": "1.1 abc.cloudfront.net (CloudFront)", "x-cache": "Miss from cloudfront"},
}

// encodeFuzzResponses is the inverse of decodeFuzzResponses, for seeds.
func encodeFuzzResponses(resps []Response, sets []int) []byte {
	var spec []byte
	for i, r := range resps {
		spec = binary.BigEndian.AppendUint16(spec, uint16(r.Status))
		spec = append(spec, byte(sets[i]))
		spec = binary.BigEndian.AppendUint16(spec, uint16(r.BodySize))
	}
	return spec
}

// decodeFuzzResponses reads up to eight responses from spec, five bytes
// each: a status below 1000, a header set and a body size.
func decodeFuzzResponses(spec []byte) []Response {
	var resps []Response
	for ; len(spec) >= 5 && len(resps) < 8; spec = spec[5:] {
		resps = append(resps, Response{
			Status:   int(binary.BigEndian.Uint16(spec)) % 1000,
			Header:   fuzzHeaderSets[int(spec[2])%len(fuzzHeaderSets)],
			BodySize: int(binary.BigEndian.Uint16(spec[3:])),
		})
	}
	return resps
}

// FuzzClientResponses generalizes TestClientCountsWithoutBuffering: a
// fuzzed sequence of responses, fed to an H1 and an H2 client cut at up
// to 40 fuzzed offsets (two bytes each), must log what the unsplit feed
// logs — each response's head and completion, in order — and neither
// client may carry more than the largest head or header block. A replay
// at the same cuts with every body byte fed as opaque runs must log the
// same: the parsers never read what a writer left opaque.
func FuzzClientResponses(f *testing.F) {
	seed := encodeFuzzResponses(clientResponses, []int{0, 1, 2, 3})
	f.Add(seed, []byte{})
	f.Add(seed, []byte{0x00, 0x07, 0x13, 0x88, 0x13, 0x8c, 0x14, 0x00})
	f.Add(seed, []byte{0xff, 0xff, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04})
	f.Add(encodeFuzzResponses([]Response{{Status: 304}, {Status: 200, BodySize: 40000}}, []int{4, 5}), []byte{0x00, 0x0a})
	f.Fuzz(func(t *testing.T, spec, rawCuts []byte) {
		resps := decodeFuzzResponses(spec)
		if len(resps) == 0 {
			return
		}
		want := wantEvents(resps)
		for _, proto := range []Protocol{H1, H2} {
			stream, maxHead, opaque := responseStream(proto, resps)
			var cuts []int
			for raw := rawCuts; len(raw) >= 2 && len(cuts) < 40; raw = raw[2:] {
				cuts = append(cuts, int(binary.BigEndian.Uint16(raw))%(len(stream)+1))
			}
			slices.Sort(cuts)
			if got := feedCuts(t, proto, len(resps), stream, cuts, maxHead, nil); !slices.Equal(got, want) {
				t.Fatalf("%v, cuts %v: %v, want %v", proto, cuts, got, want)
			}
			if got := feedCuts(t, proto, len(resps), stream, cuts, maxHead, opaque); !slices.Equal(got, want) {
				t.Fatalf("%v, cuts %v, bodies opaque: %v, want %v", proto, cuts, got, want)
			}
		}
	})
}

// TestOneTerminalCallback issues four requests on each protocol and
// injects one fault: a server reset mid-response, a blackhole that
// leaves the watchdog to end the requests, a malformed response head,
// or conn.Abort from inside an earlier request's OnSent, OnHeaders or
// OnComplete. Every request must end with exactly one OnComplete or
// OnError and log nothing after it, and the failed requests that were
// sent must fail before the queued ones, in send order.
func TestOneTerminalCallback(t *testing.T) {
	type hook func(w *hWorld, conn ClientConn, i int, event string)
	abortOn := func(at string) hook {
		return func(_ *hWorld, conn ClientConn, i int, event string) {
			if i == 0 && event == at {
				conn.Abort()
			}
		}
	}
	for _, tc := range []struct {
		name  string
		bps   float64
		wait  time.Duration
		paths [4]string
		hook  hook
		want  error // what every failed request sees; nil: any error
	}{
		{name: "server reset mid-response", bps: 10e6,
			paths: [4]string{"/b/200000", "/b/200000", "/b/200000", "/b/200000"},
			hook: func(w *hWorld, _ ClientConn, i int, event string) {
				if i == 0 && event == "headers" {
					w.sched.After(20*time.Millisecond, w.srv.Close)
				}
			}},
		{name: "watchdog", wait: time.Second, want: ErrRequestTimeout,
			paths: [4]string{"/b/100", "/b/100", "/b/100", "/b/100"},
			hook: func(w *hWorld, _ ClientConn, i int, event string) {
				if i == 0 && event == "sent" {
					// Once the request is acknowledged the client has
					// nothing in flight, so no transport timer runs.
					w.sched.After(200*time.Millisecond, func() { w.net.SetFilter(func(simnet.Packet) bool { return false }) })
					w.sched.After(requestTimeout+10*time.Second, func() { w.net.SetFilter(nil) })
				}
			}},
		{name: "malformed response", want: ErrBadResponse,
			paths: [4]string{"/b/1000", "/bad/1000", "/b/1000", "/b/1000"}},
		{name: "abort in OnSent", want: ErrConnClosed, hook: abortOn("sent"),
			paths: [4]string{"/b/5000", "/b/5000", "/b/5000", "/b/5000"}},
		{name: "abort in OnHeaders", want: ErrConnClosed, hook: abortOn("headers"),
			paths: [4]string{"/b/5000", "/b/5000", "/b/5000", "/b/5000"}},
		{name: "abort in OnComplete", want: ErrConnClosed, hook: abortOn("complete"),
			paths: [4]string{"/b/5000", "/b/5000", "/b/5000", "/b/5000"}},
	} {
		for _, proto := range []Protocol{H1, H2, H3} {
			t.Run(tc.name+"/"+proto.String(), func(t *testing.T) {
				w := newHWorld(t, 25*time.Millisecond, tc.bps, 0, tc.wait)
				conn := w.dial(proto)
				var logs [4][]string
				var sent, failed []int
				for i, path := range tc.paths {
					note := func(event string) {
						logs[i] = append(logs[i], event)
						if tc.hook != nil {
							tc.hook(w, conn, i, event)
						}
					}
					conn.Do(&Request{Host: "edge.example", Path: path}, RequestEvents{
						OnSent:     func() { sent = append(sent, i); note("sent") },
						OnHeaders:  func(ResponseMeta) { note("headers") },
						OnComplete: func() { note("complete") },
						OnError: func(err error) {
							failed = append(failed, i)
							if tc.want != nil && !errors.Is(err, tc.want) {
								t.Errorf("request %d: error %v, want %v", i, err, tc.want)
							}
							note("error")
						},
					})
				}
				w.run(t)
				for i, log := range logs {
					ends := 0
					for _, e := range log {
						if e == "complete" || e == "error" {
							ends++
						}
					}
					if last := len(log) - 1; ends != 1 || last < 0 || log[last] != "complete" && log[last] != "error" {
						t.Errorf("request %d: events %v, want exactly one terminal event, last", i, log)
					}
				}
				if len(failed) == 0 {
					t.Fatalf("no request failed: %v", logs)
				}
				// Failed requests in the order they must fail: the sent
				// ones in send order, then the queued ones in Do order.
				var order []int
				for _, i := range sent {
					if slices.Contains(failed, i) {
						order = append(order, i)
					}
				}
				for i := range tc.paths {
					if slices.Contains(failed, i) && !slices.Contains(sent, i) {
						order = append(order, i)
					}
				}
				if !slices.Equal(failed, order) {
					t.Errorf("requests failed in order %v (sent %v), want %v", failed, sent, order)
				}
			})
		}
	}
}
