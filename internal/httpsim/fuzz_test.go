package httpsim

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"testing"

	"h3cdn/internal/bufpool"
)

// sink is a blockWriter that keeps what it is given.
type sink []byte

func (s *sink) WriteOpaque(head []byte, n int) { *s = append(append(*s, head...), make([]byte, n)...) }

// malformedResponses are envelopes both response parsers must reject:
// each is tried as an H1 head and as an H2/H3 header block, and each
// defect appears in both spellings.
var malformedResponses = []string{
	"",
	// no status
	"HTTP/1.1",
	"content-length: 5\r\nserver: x",
	// non-numeric or negative status
	"HTTP/1.1 abc OK\r\ncontent-length: 5",
	":status: abc\r\ncontent-length: 5",
	"HTTP/1.1 -200 OK\r\ncontent-length: 5",
	// missing, empty, negative or trailing-garbage content-length
	"HTTP/1.1 200 OK\r\nserver: x",
	":status: 200\r\nserver: x",
	"HTTP/1.1 200 OK\r\ncontent-length: \r\n ",
	"HTTP/1.1 200 OK\r\ncontent-length: -5",
	":status: 200\r\ncontent-length: -5",
	":status: 200\r\ncontent-length: 5x",
}

// roundTrippable reports whether the fuzzed strings can be carried by the
// line-oriented envelope at all: no line breaks anywhere, no space in
// the request-line path, and a header key that is a plain token not
// claimed by the envelope itself.
func roundTrippable(host, path, key, val string) bool {
	if strings.ContainsAny(host+path+key+val, "\r\n") || strings.Contains(path, " ") {
		return false
	}
	return key != "" && !strings.ContainsAny(key, ": ") && key != "host" && key != "content-length"
}

// FuzzEnvelopes pins the one HTTP codec: hostile bytes never panic a
// parser or make the block parser or the H1 head carry retain more than
// one capped header block, well-formed envelopes survive encode→parse on H1 and on H2/H3
// blocks, and malformed responses are ErrBadResponse. The seeds run
// under plain go test.
func FuzzEnvelopes(f *testing.F) {
	var pl Pools
	for _, in := range malformedResponses {
		if _, err := pl.parseH1Response([]byte(in)); !errors.Is(err, ErrBadResponse) {
			f.Errorf("parseH1Response(%q): err = %v, want ErrBadResponse", in, err)
		}
		if _, err := pl.parseResponseHeaderBlock([]byte(in)); !errors.Is(err, ErrBadResponse) {
			f.Errorf("parseResponseHeaderBlock(%q): err = %v, want ErrBadResponse", in, err)
		}
		f.Add([]byte(in), "h", "/", "k", "v", 200, 0)
	}
	f.Add([]byte("GET /a HTTP/1.1\r\nhost: cdn.example\r\naccept: */*"), "cdn.example", "/a/b.js", "accept", "*/*", 200, 1234)
	f.Add([]byte("HTTP/1.1 200 OK\r\ncontent-length: 7\r\nserver: cloudflare"), "", "", "x-cache", "", 404, 0)
	f.Add([]byte(":authority: a\r\n:path: /\r\nuser-agent: simbrowser/1.0\r\n"), "a", "/", "via", "1.1 varnish: x", 0, 2<<20)
	f.Add([]byte("\x03\x00\x00\x00\x07\x01\x00\x00\x00\x02hi\x01\x00\x00\x00\x01\x00\xff\xff\xff\xff"), "h", "p", "k", ": ", 1, 1)
	// A HEADERS block announcing 4 GB with more than the cap behind it:
	// the parser must refuse it, not buffer it.
	f.Add(append([]byte("\x02\x00\x00\x00\x01\x00\xff\xff\xff\xff"), make([]byte, 2*maxHeaderBlock)...), "h", "p", "k", "v", 1, 1)
	// An H1 head that never ends: the head carry must give up at the cap.
	f.Add(append([]byte("HTTP/1.1 200 OK\r\n"), bytes.Repeat([]byte("x-filler: abcdefgh\r\n"), maxHeaderBlock/10)...), "h", "p", "k", "v", 1, 1)

	f.Fuzz(func(t *testing.T, raw []byte, host, path, key, val string, status, size int) {
		var pl Pools
		pl.parseH1Request(raw)
		pl.parseRequestHeaderBlock(raw)
		for _, parse := range []func([]byte) (ResponseMeta, error){pl.parseH1Response, pl.parseResponseHeaderBlock} {
			if meta, err := parse(raw); err == nil && (meta.Status < 0 || meta.BodySize < 0) {
				t.Fatalf("accepted %q as status %d, length %d", raw, meta.Status, meta.BodySize)
			} else if err != nil && !errors.Is(err, ErrBadResponse) {
				t.Fatalf("parse(%q): err = %v, want ErrBadResponse", raw, err)
			}
		}
		var bp blockParser
		cut := len(raw) / 2
		bp.feed(raw[:cut])
		bp.feed(raw[cut:])
		if held := len(bp.acc) - bp.off; held > blockHeaderSize+maxHeaderBlock || bp.overlong && held != 0 {
			t.Fatalf("parser retains %d of %d hostile bytes (overlong=%v)", held, len(raw), bp.overlong)
		}
		var heads headCarry
		for _, piece := range [][]byte{raw[:cut], raw[cut:]} {
			for ok := true; ok; {
				_, piece, ok = heads.take(piece)
			}
		}
		if held := len(heads.acc); held > maxHeaderBlock || heads.overlong && held != 0 {
			t.Fatalf("head carry retains %d of %d hostile bytes (overlong=%v)", held, len(raw), heads.overlong)
		}

		if !roundTrippable(host, path, key, val) || status < 0 || size < 0 {
			return
		}
		req := &Request{Host: host, Path: path, Header: map[string]string{key: val}}
		resp := Response{Status: status, BodySize: size, Header: map[string]string{key: val}}
		checkReq := func(proto string, got *Request) {
			if got == nil || got.Host != host || got.Path != path || !maps.Equal(got.Header, req.Header) {
				t.Fatalf("%s request round trip: %+v, want %+v", proto, got, req)
			}
		}
		checkResp := func(proto string, got ResponseMeta, err error) {
			if err != nil || got.Status != status || got.BodySize != size || !maps.Equal(got.Header, resp.Header) {
				t.Fatalf("%s response round trip: %+v (%v), want %+v", proto, got, err, resp)
			}
		}

		// H1: the wire form ends in a blank line the connection strips.
		head := strings.TrimSuffix(string(pl.encodeH1Request(req)), "\r\n\r\n")
		got, _ := pl.parseH1Request([]byte(head))
		checkReq("h1", got)
		if again, _ := pl.parseH1Request([]byte(head)); again != got {
			t.Fatal("h1 request: second parse missed the canonical cache")
		}
		head = strings.TrimSuffix(string(pl.encodeH1Response(resp)), "\r\n\r\n")
		meta, err := pl.parseH1Response([]byte(head))
		checkResp("h1", meta, err)

		// H2/H3: header blocks travel framed, and may arrive in pieces.
		var wire sink
		arena := &bufpool.Arena{}
		writeBlock(arena, &wire, blockHeadersReq, 5, flagEndStream, pl.requestHeaderBlock(req))
		writeBlock(arena, &wire, blockHeadersResp, 5, 0, pl.responseHeaderBlock(resp))
		cut = len(raw) % len(wire)
		bp = blockParser{}
		var blocks []block
		for _, piece := range [][]byte{wire[:cut], wire[cut:]} {
			for _, b := range bp.feed(piece) {
				b.payload = bytes.Clone(b.payload) // only valid until the next feed
				blocks = append(blocks, b)
			}
		}
		if len(blocks) != 2 || blocks[0].typ != blockHeadersReq || blocks[1].typ != blockHeadersResp ||
			blocks[0].streamID != 5 || blocks[0].flags != flagEndStream {
			t.Fatalf("framing round trip: %+v", blocks)
		}
		checkReq("block", pl.parseRequestHeaderBlock(blocks[0].payload))
		meta, err = pl.parseResponseHeaderBlock(blocks[1].payload)
		checkResp("block", meta, err)
		if arena.Stats().InUse != 0 {
			t.Fatalf("writeBlock leaked: %+v", arena.Stats())
		}
	})
}
