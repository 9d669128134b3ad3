package httpsim

import (
	"bytes"
	"strconv"
	"time"

	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
)

// DialConfig carries the client-side transport knobs shared by all
// protocols.
type DialConfig struct {
	// TLSVersion selects the TLS handshake for H1/H2 (default TLS 1.3;
	// TLS 1.2 reproduces the paper's 3-RTT "H2 + TLS/1.2 suite").
	TLSVersion tlssim.Version
	// TLSTickets enables TLS 1.3 resumption for H1/H2.
	TLSTickets *tlssim.TicketStore
	// EnableEarlyData sends TLS 0-RTT requests on resumed H1/H2
	// connections.
	EnableEarlyData bool
	// Recovery receives the TCP endpoint's loss-recovery counters (nil
	// disables; see simnet.RecoveryStats).
	Recovery *simnet.RecoveryStats
	// HandshakeCPU models client crypto compute time.
	HandshakeCPU time.Duration
	// Pools supplies the shared allocation arenas (TCP segments,
	// buffers, header caches). Required.
	Pools *Pools
	// Trace, when non-nil, receives transport- and HTTP-level events
	// for this connection. Nil-safe: every emit is a no-op when nil.
	Trace *trace.Tracer
}

// h1Client is an HTTP/1.1 client connection: strictly one request in
// flight; further requests queue (the browser opens parallel connections).
type h1Client struct {
	client
	tlsWire
	// heads carries only a response head split across deliveries; body
	// bytes are counted straight from the delivery, never buffered.
	heads headCarry
}

var _ ClientConn = (*h1Client)(nil)

// DialH1 opens an HTTP/1.1 connection to addr:port.
func DialH1(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg DialConfig) ClientConn {
	c, ok := cfg.Pools.h1.Get(host.Scheduler(), (*h1Client).reset)
	if !ok {
		c = newH1Client()
	}
	c.dial(host, addr, port, serverName, H1, cfg)
	return c
}

func newH1Client() *h1Client {
	c := &h1Client{}
	c.tlsWire.bind(&c.client, c)
	return c
}

func (c *h1Client) reset() {
	c.client.reset()
	c.tlsWire.reset()
	c.heads = headCarry{acc: c.heads.acc[:0]}
}

func (c *h1Client) recycle() {
	c.release()
	c.pools.h1.Retire(c, c.sched)
}

func (c *h1Client) send(r *request) {
	r.id = c.sent
	c.trace.HTTPStreamOpen(c.sched.Now(), c.traceID, r.id, r.req.Host, r.req.Path)
	c.tls.Write(c.pools.encodeH1Request(r.req))
}

func (c *h1Client) parse(_ *request, p []byte) {
	for len(c.active) > 0 {
		r := c.active[0]
		if !r.gotMeta {
			head, rest, ok := c.heads.take(p)
			if !ok {
				if c.heads.overlong {
					c.fail(ErrBadResponse)
				}
				return
			}
			p = rest
			if meta, err := c.pools.parseH1Response(head); !c.headers(r, meta, err) {
				return
			}
		}
		n := min(r.bodyLeft, len(p))
		r.bodyLeft -= n
		p = p[n:]
		if r.bodyLeft > 0 {
			return
		}
		c.complete(r)
	}
}

// --- H1 wire format ---

// encodeH1Request assembles the request in the shared scratch buffer;
// the result is only valid until the next Pools encode call. (The TLS
// layer copies on Write.)
func (pl *Pools) encodeH1Request(req *Request) []byte {
	dst := pl.hdrBuf[:0]
	dst = append(dst, "GET "...)
	dst = append(dst, req.Path...)
	dst = append(dst, " HTTP/1.1\r\nhost: "...)
	dst = append(dst, req.Host...)
	dst = append(dst, "\r\n"...)
	dst = append(dst, requestHeaderLines...)
	dst = append(dst, "\r\n"...)
	pl.hdrBuf = dst
	return dst
}

// parseH1Head reads what a server routes on from an HTTP/1.1 head: Path
// is the request line's second field (the line needs two spaces) and
// Host the value of the last host line, both interned.
func (pl *Pools) parseH1Head(p []byte) (Request, bool) {
	line, rest, ok := bytes.Cut(p, crlf)
	_, target, ok1 := bytes.Cut(line, space)
	path, _, ok2 := bytes.Cut(target, space)
	if !ok || !ok1 || !ok2 {
		return Request{}, false
	}
	host, _ := lastValues(rest, "host", "host")
	return Request{Host: pl.intern(host), Path: pl.intern(path)}, true
}

// encodeH1Response assembles the response envelope in the shared
// scratch buffer; valid until the next Pools encode call.
func (pl *Pools) encodeH1Response(resp Response) []byte {
	dst := pl.hdrBuf[:0]
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(resp.Status), 10)
	dst = append(dst, " OK\r\ncontent-length: "...)
	dst = strconv.AppendInt(dst, int64(resp.BodySize), 10)
	dst = append(dst, "\r\n"...)
	dst, pl.sortScratch = appendHeaderLines(dst, resp.Header, pl.sortScratch)
	dst = append(dst, "\r\n"...)
	pl.hdrBuf = dst
	return dst
}

// parseH1Response parses status and content-length per call; the
// remaining headers resolve to a canonical shared map (see
// Pools.canonHeaderMap).
func (pl *Pools) parseH1Response(p []byte) (ResponseMeta, error) {
	line, rest := cutLine(p)
	// Status is the second space-separated token of "HTTP/1.1 200 OK".
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return ResponseMeta{}, ErrBadResponse
	}
	tok := line[sp+1:]
	if sp2 := bytes.IndexByte(tok, ' '); sp2 >= 0 {
		tok = tok[:sp2]
	}
	status := parseDecimal(tok)
	if status < 0 {
		return ResponseMeta{}, ErrBadResponse
	}
	key, _, clen := pl.stripRespHeaders(rest)
	if clen < 0 {
		return ResponseMeta{}, ErrBadResponse
	}
	return ResponseMeta{Status: status, Header: pl.canonHeaderMap(key), BodySize: clen}, nil
}

// respondH1 writes an HTTP/1.1 response.
func (c *serverConn) respondH1(resp Response) {
	c.tls.Write(c.srv.cfg.Pools.encodeH1Response(resp))
	writeBody(c.tls, resp.BodySize)
}

// onDataH1 dispatches every request head the delivery completes.
func (c *serverConn) onDataH1(p []byte) {
	for {
		head, rest, ok := c.heads.take(p)
		if !ok {
			if c.heads.overlong {
				c.abort()
			}
			return
		}
		p = rest
		if c.req, ok = c.srv.cfg.Pools.parseH1Head(head); !ok {
			continue
		}
		c.dispatch(0)
	}
}

// headCarry finds HTTP/1.1 heads — the bytes before a CRLFCRLF — in a
// byte stream whose deliveries may split them. Each delivery is scanned
// once, and only an unterminated head is copied: acc holds at most
// maxHeaderBlock bytes, grown to exactly what it carries.
type headCarry struct {
	acc []byte
	// overlong latches once the unterminated head passes
	// maxHeaderBlock: framing is lost, so take yields nothing more.
	// Clients fail with ErrBadResponse, servers abort.
	overlong bool
}

// take returns the head p completes, without its terminator, and the
// bytes after it. head is valid until the next take. ok is false when p
// ends inside a head, which is then carried.
func (h *headCarry) take(p []byte) (head, rest []byte, ok bool) {
	if h.overlong {
		return nil, nil, false
	}
	if k := len(h.acc); k > 0 {
		// A terminator straddling the carried bytes and p starts in the
		// last three carried bytes and ends in the first three of p.
		var seam [6]byte
		n := copy(seam[:], h.acc[max(k-3, 0):])
		m := copy(seam[n:], p[:min(len(p), 3)])
		if i := bytes.Index(seam[:n+m], crlf2); i >= 0 {
			head, h.acc = h.acc[:k-n+i], h.acc[:0]
			return head, p[i+4-n:], true
		}
	}
	if i := bytes.Index(p, crlf2); i >= 0 {
		if len(h.acc) == 0 {
			return p[:i], p[i+4:], true
		}
		h.carry(p[:i])
		head, h.acc = h.acc, h.acc[:0]
		return head, p[i+4:], true
	}
	if len(h.acc)+len(p) > maxHeaderBlock {
		h.acc, h.overlong = nil, true
		return nil, nil, false
	}
	h.carry(p)
	return nil, nil, false
}

// carry appends p to acc, growing it to exactly the length needed.
func (h *headCarry) carry(p []byte) {
	if need := len(h.acc) + len(p); need > cap(h.acc) {
		h.acc = append(make([]byte, 0, need), h.acc...)
	}
	h.acc = append(h.acc, p...)
}
