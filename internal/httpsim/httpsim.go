// Package httpsim implements simulated HTTP/1.1, HTTP/2 and HTTP/3
// clients and servers over the transports in internal/tcpsim,
// internal/tlssim, and internal/quicsim.
//
// HTTP/1.1 serializes one request at a time per connection (browsers
// compensate with up to six parallel connections per host). HTTP/2
// multiplexes frames over a single TLS/TCP byte stream — so a lost TCP
// segment stalls every stream (emergent head-of-line blocking). HTTP/3
// maps each request to one QUIC stream, which the transport delivers
// independently.
//
// Headers travel uncompressed for all three protocols; HPACK/QPACK
// differences are not load-bearing for the reproduced experiments (see
// DESIGN.md).
package httpsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/bufpool"
)

// Protocol identifies the HTTP version of a connection or request.
type Protocol uint8

const (
	// H1 is HTTP/1.1 over TLS/TCP.
	H1 Protocol = iota + 1
	// H2 is HTTP/2 over TLS/TCP.
	H2
	// H3 is HTTP/3 over QUIC.
	H3
)

func (p Protocol) String() string {
	switch p {
	case H1:
		return "http/1.1"
	case H2:
		return "h2"
	case H3:
		return "h3"
	default:
		return "http/?"
	}
}

// ALPN returns the TLS ALPN token for the protocol.
func (p Protocol) ALPN() string { return p.String() }

// Request is a simulated HTTP GET.
type Request struct {
	// Host is the authority (hostname) — it keys connection pools,
	// session caches, and CDN provider resolution.
	Host string
	// Path identifies the resource.
	Path string
}

// requestHeaderLines are the header lines every request carries after
// its authority and path: the browser's constant accept and user-agent
// lines, sorted as appendHeaderLines would write them.
const requestHeaderLines = "accept: */*\r\nuser-agent: simbrowser/1.0\r\n"

// Response describes what a server sends back. Header contents matter:
// the locedge classifier reads Server/Via/X-Cache headers from it.
type Response struct {
	Status   int
	Header   map[string]string
	BodySize int
}

// ResponseMeta is the client-visible response envelope, parsed from the
// wire before the body completes.
type ResponseMeta struct {
	Status   int
	Header   map[string]string
	BodySize int
}

// RequestEvents receives the lifecycle callbacks for one request. Any
// field may be nil. Exactly one of OnComplete or OnError fires last.
type RequestEvents struct {
	// OnSent fires when the request bytes are written to the wire.
	OnSent func()
	// OnHeaders fires when the response envelope has been parsed
	// (first-byte time).
	OnHeaders func(ResponseMeta)
	// OnComplete fires when the full body has been received.
	OnComplete func()
	// OnError fires when the connection fails before completion.
	OnError func(error)
}

// Errors surfaced through OnError.
var (
	ErrConnClosed   = errors.New("httpsim: connection closed")
	ErrBadResponse  = errors.New("httpsim: malformed response")
	ErrNotSupported = errors.New("httpsim: operation not supported")
)

// ClientConn is the protocol-independent client connection interface the
// browser pools.
type ClientConn interface {
	// Do issues a request. Requests made before connection
	// establishment are queued and sent when possible.
	Do(req *Request, ev RequestEvents)
	// Protocol returns the connection's HTTP version.
	Protocol() Protocol
	// HandshakeDuration is the dial-to-usable duration (0 for 0-RTT).
	HandshakeDuration() time.Duration
	// Resumed reports TLS/QUIC session resumption.
	Resumed() bool
	// InFlight reports requests issued but not yet completed.
	InFlight() int
	// TraceID is the connection's tracer-assigned identity (0 when
	// tracing is disabled or the transport has not been dialed).
	TraceID() uint32
	// SSLDuration is the TLS portion of the handshake for H1/H2 (HAR
	// "ssl", a subset of HandshakeDuration). For H3 the integrated
	// QUIC handshake is all crypto, so it equals HandshakeDuration.
	SSLDuration() time.Duration
	// Close terminates the connection gracefully. Every outstanding
	// request, sent or queued, first gets OnError(ErrConnClosed), sent
	// ones in send order; a later Do gets the same at once.
	Close()
	// Abort terminates immediately (no peer notification beyond
	// transport reset), failing outstanding requests as Close does.
	Abort()
	// Release tells the connection that its holder makes no further
	// call, this one's values included; it is closed first if still
	// open. A connection drawn from a Pools is recycled once its
	// transport can no longer call it either. Read what you keep —
	// HandshakeDuration, SSLDuration, Resumed, TraceID — before.
	Release()
}

// Handler processes a request on the server. It answers exactly once,
// synchronously or after a delay (simulated processing time): by calling
// respond, or through the Responder that ctx.Responder(respond) returns,
// which can also wait without a closure (Responder.After). A server's
// respond is its pooled responder's Respond, and the per-request state
// behind it is recycled once it has answered.
type Handler func(ctx *ServerContext, respond func(Response))

// ServerContext carries per-request server-side information; Req holds
// only Host and Path. The server reuses the context and its Req for the
// next request, so both are valid only during the handler call: a
// handler that responds later copies out what it keeps.
type ServerContext struct {
	Req      *Request
	Protocol Protocol
	// ServerName is the SNI/authority the connection was opened for.
	ServerName string

	responder *Responder // the server's, for this request
}

// Responder returns the request's responder: the one the server drew
// for it, or, for a context built outside a server, a new one that calls
// respond. Like respond, it answers once.
func (ctx *ServerContext) Responder(respond func(Response)) *Responder {
	if ctx.responder != nil {
		return ctx.responder
	}
	return &Responder{fn: respond}
}

// --- header and body serialization (shared by H1/H2/H3) ---

// appendHeaderLines serializes headers deterministically (sorted keys)
// into dst, reusing keys as sort scratch. Allocation-free once dst and
// keys have grown to steady-state capacity.
func appendHeaderLines(dst []byte, h map[string]string, keys []string) ([]byte, []string) {
	keys = keys[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(dst, k...)
		dst = append(dst, ": "...)
		dst = append(dst, h[k]...)
		dst = append(dst, "\r\n"...)
	}
	return dst, keys
}

func decodeHeaders(p []byte) map[string]string {
	h := make(map[string]string)
	for _, line := range strings.Split(string(p), "\r\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		h[k] = v
	}
	return h
}

// --- binary block framing (H2 frames and H3 stream blocks) ---

type blockType uint8

const (
	blockHeadersReq blockType = iota + 1
	blockHeadersResp
	blockData
)

const blockHeaderSize = 10 // type(1) + streamID(4) + flags(1) + length(4)

const flagEndStream = 1

// putBlockHeader writes the frame header [type][streamID][flags][len]
// that precedes every payload.
func putBlockHeader(buf []byte, t blockType, streamID uint32, flags uint8, plen int) {
	buf[0] = byte(t)
	binary.BigEndian.PutUint32(buf[1:5], streamID)
	buf[5] = flags
	binary.BigEndian.PutUint32(buf[6:10], uint32(plen))
}

// blockWriter is any byte sink honoring the bytestream contract
// (WriteOpaque copies head before returning).
type blockWriter interface{ WriteOpaque(head []byte, n int) }

// writeBlock frames payload into a pooled buffer, writes it, and recycles
// the buffer immediately.
func writeBlock(a *bufpool.Arena, w blockWriter, t blockType, streamID uint32, flags uint8, payload []byte) {
	buf := a.Get(blockHeaderSize + len(payload))
	putBlockHeader(buf, t, streamID, flags, len(payload))
	copy(buf[blockHeaderSize:], payload)
	w.WriteOpaque(buf, 0)
	a.Put(buf)
}

// writeBodyBlock writes a blockData frame carrying a synthetic n-byte
// body. Body bytes are only ever counted, never inspected, so only the
// block header is supplied and the body is opaque.
func writeBodyBlock(a *bufpool.Arena, w blockWriter, streamID uint32, flags uint8, n int) {
	hdr := a.Get(blockHeaderSize)
	putBlockHeader(hdr, blockData, streamID, flags, n)
	w.WriteOpaque(hdr, n)
	a.Put(hdr)
}

// maxHeaderBlock caps the payload of a non-DATA block. Real header
// blocks are a few hundred bytes; the cap is what a corrupt 32-bit
// length can make a parser buffer before the connection is refused.
const maxHeaderBlock = 64 << 10

// blockParser incrementally decodes framed blocks from a byte stream.
// DATA payloads are never buffered — body bytes are only ever counted —
// and every other block is parsed in place from the delivery that
// completes it; acc carries only a header or header block split across
// deliveries.
type blockParser struct {
	acc    []byte
	off    int     // consumed prefix of acc; compacted at the next feed
	blocks []block // reused result slice handed out by feed

	data     block // the DATA block whose payload is being counted
	dataLeft int   // payload bytes of data still to arrive
	counting bool
	// overlong latches once a non-DATA block announces more than
	// maxHeaderBlock: framing is lost, so this and every later feed
	// yield nothing. Clients fail with ErrBadResponse, servers abort.
	overlong bool
}

// block is one decoded frame. size is the announced payload length;
// payload is nil for blockData.
type block struct {
	typ      blockType
	streamID uint32
	flags    uint8
	size     int
	payload  []byte
}

// feed consumes data and returns every block it completes: a DATA block
// on the feed that carries its last byte, as a size. Returned payloads
// alias data or the parser's carry-over and the returned slice is reused
// by the next feed — both are only valid until then. (Safe here: data
// delivery is a scheduler event, so a callback iterating the result can
// never re-enter feed on the same parser.)
func (p *blockParser) feed(data []byte) []block {
	if p.off > 0 {
		p.acc = p.acc[:copy(p.acc, p.acc[p.off:])]
		p.off = 0
	}
	out := p.blocks[:0]
	for !p.overlong {
		if p.counting {
			n := min(p.dataLeft, len(data))
			p.dataLeft -= n
			data = data[n:]
			if p.dataLeft > 0 {
				break
			}
			p.counting = false
			out = append(out, p.data)
		}
		// The next block is read from the carried bytes, topped up from
		// data only as far as it needs, or else from data itself.
		carried := len(p.acc) > p.off
		src := data
		if carried {
			if !p.carry(&data, blockHeaderSize) {
				break
			}
			src = p.acc[p.off:]
		} else if len(src) < blockHeaderSize {
			p.acc = append(p.acc, src...)
			break
		}
		b := block{
			typ:      blockType(src[0]),
			streamID: binary.BigEndian.Uint32(src[1:5]),
			flags:    src[5],
			size:     int(binary.BigEndian.Uint32(src[6:10])),
		}
		total := blockHeaderSize
		if b.typ != blockData {
			if b.size > maxHeaderBlock {
				p.overlong = true
				p.acc, p.off = p.acc[:0], 0
				break
			}
			total += b.size
		}
		if carried {
			if !p.carry(&data, total) {
				break
			}
			src = p.acc[p.off:]
			p.off = len(p.acc)
		} else if len(src) < total {
			p.acc = append(p.acc, src...)
			break
		} else {
			data = data[total:]
		}
		if b.typ == blockData {
			p.data, p.dataLeft, p.counting = b, b.size, true
			continue
		}
		b.payload = src[blockHeaderSize:total]
		out = append(out, b)
	}
	p.blocks = out
	return out
}

// carry tops the carried bytes up to n from the front of *data and
// reports whether they reach it.
func (p *blockParser) carry(data *[]byte, n int) bool {
	have := len(p.acc) - p.off
	if k := min(n-have, len(*data)); k > 0 {
		p.acc = append(p.acc, (*data)[:k]...)
		*data = (*data)[k:]
		have += k
	}
	return have >= n
}

// rewind clears the parser for reuse across visits.
func (p *blockParser) rewind() {
	// Drop stale payload aliases (they may pin an abandoned carry-over
	// array or a transport's delivery buffer) before truncating.
	clear(p.blocks[:cap(p.blocks)])
	*p = blockParser{acc: p.acc[:0], blocks: p.blocks[:0]}
}

// requestHeaderBlock serializes a request for H2/H3: pseudo-headers
// first, then the regular headers sorted (decoders are
// order-insensitive). It assembles the block in the shared scratch
// buffer; the result is only valid until the next Pools encode call.
func (pl *Pools) requestHeaderBlock(req *Request) []byte {
	dst := pl.hdrBuf[:0]
	dst = append(dst, ":authority: "...)
	dst = append(dst, req.Host...)
	dst = append(dst, "\r\n:path: "...)
	dst = append(dst, req.Path...)
	dst = append(dst, "\r\n"...)
	dst = append(dst, requestHeaderLines...)
	pl.hdrBuf = dst
	return dst
}

// parseRequestBlock reads what a server routes on from an H2/H3 request
// block: the values of its last :authority and :path lines, interned.
func (pl *Pools) parseRequestBlock(p []byte) Request {
	host, path := lastValues(p, ":authority", ":path")
	return Request{Host: pl.intern(host), Path: pl.intern(path)}
}

// lastValues returns the values of the last header lines keyed ka and
// kb (nil if none), with decodeHeaders' rule: a line's key is the text
// before its first ": ", and a line without one is skipped.
func lastValues(p []byte, ka, kb string) (va, vb []byte) {
	for rest := p; len(rest) > 0; {
		var line []byte
		line, rest = cutLine(rest)
		if k, v, ok := bytes.Cut(line, colonSpace); ok && string(k) == ka {
			va = v
		} else if ok && string(k) == kb {
			vb = v
		}
	}
	return va, vb
}

// intern returns b as a string, allocating only the first time the
// shard sees its value; the lookup itself allocates nothing.
func (pl *Pools) intern(b []byte) string {
	if s, ok := pl.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if pl.names == nil {
		pl.names = make(map[string]string)
	}
	pl.names[s] = s
	return s
}

// responseHeaderBlock serializes a response envelope for H2/H3 in the
// shared scratch buffer; the result is only valid until the next Pools
// encode call.
func (pl *Pools) responseHeaderBlock(resp Response) []byte {
	dst := pl.hdrBuf[:0]
	dst = append(dst, ":status: "...)
	dst = strconv.AppendInt(dst, int64(resp.Status), 10)
	dst = append(dst, "\r\ncontent-length: "...)
	dst = strconv.AppendInt(dst, int64(resp.BodySize), 10)
	dst = append(dst, "\r\n"...)
	dst, pl.sortScratch = appendHeaderLines(dst, resp.Header, pl.sortScratch)
	pl.hdrBuf = dst
	return dst
}

var (
	crlf         = []byte("\r\n")
	crlf2        = []byte("\r\n\r\n")
	colonSpace   = []byte(": ")
	space        = []byte(" ")
	statusPrefix = []byte(":status: ")
	clenPrefix   = []byte("content-length: ")
)

// cutLine splits off p's first CRLF-terminated line, or all of p.
func cutLine(p []byte) (line, rest []byte) {
	if nl := bytes.Index(p, crlf); nl >= 0 {
		return p[:nl], p[nl+2:]
	}
	return p, nil
}

// parseDecimal parses a non-negative base-10 integer, returning -1 on
// empty or malformed input.
func parseDecimal(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// stripRespHeaders scans wire header lines, extracting the per-resource
// ":status" and "content-length" values (-1 when absent or malformed)
// and accumulating every other line into the shared key scratch — the
// cache key for the canonical header map, which excludes exactly the
// two fields that vary per resource.
func (pl *Pools) stripRespHeaders(p []byte) (key []byte, status, clen int) {
	status, clen = -1, -1
	key = pl.keyBuf[:0]
	for rest := p; len(rest) > 0; {
		var line []byte
		line, rest = cutLine(rest)
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, statusPrefix):
			status = parseDecimal(line[len(statusPrefix):])
		case bytes.HasPrefix(line, clenPrefix):
			clen = parseDecimal(line[len(clenPrefix):])
		default:
			key = append(key, line...)
			key = append(key, '\r', '\n')
		}
	}
	pl.keyBuf = key
	return key, status, clen
}

// canonHeaderMap returns the shared canonical header map for the given
// stripped header bytes, parsing at most once per distinct set.
// Consumers (HAR entries, the locedge classifier) must not mutate it.
func (pl *Pools) canonHeaderMap(key []byte) map[string]string {
	if h, ok := pl.respCache[string(key)]; ok {
		return h
	}
	h := decodeHeaders(key)
	if pl.respCache == nil {
		pl.respCache = make(map[string]map[string]string)
	}
	pl.respCache[string(key)] = h
	return h
}

// parseResponseHeaderBlock parses status and length per call (they vary
// per resource); the remaining headers resolve to a canonical shared
// map.
func (pl *Pools) parseResponseHeaderBlock(p []byte) (ResponseMeta, error) {
	key, status, clen := pl.stripRespHeaders(p)
	if status < 0 || clen < 0 {
		return ResponseMeta{}, ErrBadResponse
	}
	return ResponseMeta{Status: status, Header: pl.canonHeaderMap(key), BodySize: clen}, nil
}

// bodyChunkSize is the DATA frame payload granularity for H2/H3 servers.
const bodyChunkSize = 16 * 1024

// writeBody streams a synthetic n-byte body (no framing) as opaque
// bodyChunkSize writes, as with writeBodyBlock.
func writeBody(w blockWriter, n int) {
	for n > 0 {
		c := min(n, bodyChunkSize)
		w.WriteOpaque(nil, c)
		n -= c
	}
}
