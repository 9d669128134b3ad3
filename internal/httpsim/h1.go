package httpsim

import (
	"bytes"
	"strconv"
	"time"

	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
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
	// Pools, when non-nil, supplies the shared allocation arenas (TCP
	// segments, buffers, header caches). Nil gets a private one.
	Pools *Pools
	// Trace, when non-nil, receives transport- and HTTP-level events
	// for this connection. Nil-safe: every emit is a no-op when nil.
	Trace *trace.Tracer
}

type h1Pending struct {
	req    *Request
	ev     RequestEvents
	stream int64
}

// h1Client is an HTTP/1.1 client connection: strictly one request in
// flight; further requests queue (the browser opens parallel connections).
type h1Client struct {
	sched       *simnet.Scheduler
	tls         *tlssim.Conn
	established bool
	hsDur       time.Duration
	sslDur      time.Duration
	resumed     bool
	closed      bool

	trace      *trace.Tracer
	traceID    uint32
	pools      *Pools
	nextStream int64

	queue  []h1Pending
	cur    h1Pending
	hasCur bool
	dog    reqWatchdog

	// Response parse state. Body bytes are counted straight from the
	// delivery, never buffered; heads carries only a response head split
	// across deliveries.
	heads     headCarry
	bodyLeft  int
	gotHeader bool
}

var _ ClientConn = (*h1Client)(nil)

// DialH1 opens an HTTP/1.1 connection to addr:port.
func DialH1(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg DialConfig) ClientConn {
	cfg.Pools = orPrivate(cfg.Pools)
	c := &h1Client{sched: host.Scheduler(), trace: cfg.Trace, pools: cfg.Pools}
	dialStart := c.sched.Now()
	dialTLS(host, addr, port, serverName, H1, cfg, func(conn *tlssim.Conn, err error) {
		if err != nil {
			c.fail(err)
			return
		}
		if c.closed {
			// The client gave up (watchdog or abort) while the handshake
			// was still running; release the late connection.
			conn.Abort()
			return
		}
		c.tls = conn
		// Handshake duration covers TCP + TLS, from the dial call; the
		// SSL portion is the TLS layer's own span (HAR "ssl").
		c.hsDur = c.sched.Now() - dialStart
		c.sslDur = conn.HandshakeDuration()
		c.traceID = conn.TraceID()
		c.resumed = conn.Resumed()
		conn.SetDataFunc(c.onData)
		conn.SetCloseFunc(c.onClose)
		c.established = true
		c.next()
	}, func(conn *tlssim.Conn) { c.tls = conn })
	c.dog.init(c.sched, c.watchdogFire)
	return c
}

// dialTLS opens TCP then TLS with the given ALPN. early gives the caller
// the TLS conn as soon as it exists (before handshake completion) so
// Close/Abort work mid-handshake.
func dialTLS(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, proto Protocol,
	cfg DialConfig, done func(*tlssim.Conn, error), early func(*tlssim.Conn)) {
	tcpCfg := tcpsim.Config{
		Recovery: cfg.Recovery,
		Trace:    cfg.Trace,
		Pools:    &cfg.Pools.TCP,
		Arena:    &cfg.Pools.Arena,
	}
	version := cfg.TLSVersion
	if version == 0 {
		version = tlssim.TLS13
	}
	tc := tcpsim.Dial(host, addr, port, tcpCfg, func(tc *tcpsim.Conn) {
		var tconn *tlssim.Conn
		tconn = tlssim.Client(tc, tlssim.ClientConfig{
			Version:         version,
			ServerName:      serverName,
			Tickets:         cfg.TLSTickets,
			EnableEarlyData: cfg.EnableEarlyData,
			Sched:           host.Scheduler(),
			HandshakeCPU:    cfg.HandshakeCPU,
			ALPN:            proto.ALPN(),
			Arena:           &cfg.Pools.Arena,
			RecvArena:       &cfg.Pools.Recv,
			Trace:           cfg.Trace,
			TraceConn:       tc.TraceID(),
		}, func(err error) { done(tconn, err) })
		if early != nil {
			early(tconn)
		}
	})
	// Cover the SYN window: until the TLS layer takes over the close
	// callback (on establishment), a connection that dies dialing — SYN
	// retry exhaustion, RST — would otherwise vanish without ever
	// resolving the dial.
	tc.SetCloseFunc(func(err error) {
		if err == nil {
			err = ErrConnClosed
		}
		done(nil, err)
	})
}

func (c *h1Client) Protocol() Protocol { return H1 }

func (c *h1Client) Established() bool { return c.established }

func (c *h1Client) HandshakeDuration() time.Duration { return c.hsDur }

func (c *h1Client) SSLDuration() time.Duration { return c.sslDur }

func (c *h1Client) TraceID() uint32 { return c.traceID }

func (c *h1Client) Resumed() bool { return c.resumed }

func (c *h1Client) InFlight() int {
	n := len(c.queue)
	if c.hasCur {
		n++
	}
	return n
}

func (c *h1Client) Do(req *Request, ev RequestEvents) {
	if c.closed {
		if ev.OnError != nil {
			ev.OnError(ErrConnClosed)
		}
		return
	}
	c.queue = append(c.queue, h1Pending{req: req, ev: ev})
	if c.established {
		c.next()
	}
	if !c.closed {
		c.dog.touch(c.InFlight())
	}
}

func (c *h1Client) next() {
	if c.hasCur || len(c.queue) == 0 || c.closed {
		return
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	c.nextStream++
	p.stream = c.nextStream
	c.cur = p
	c.hasCur = true
	c.trace.HTTPStreamOpen(c.sched.Now(), c.traceID, p.stream, p.req.Host, p.req.Path)
	c.tls.Write(c.pools.encodeH1Request(p.req))
	if p.ev.OnSent != nil {
		p.ev.OnSent()
	}
}

func (c *h1Client) onData(p []byte) {
	c.parse(p)
	if !c.closed {
		// Response bytes arrived: reset the silence budget, or disarm it
		// entirely if this delivery completed the last request.
		c.dog.touch(c.InFlight())
	}
}

func (c *h1Client) parse(p []byte) {
	for c.hasCur {
		if !c.gotHeader {
			head, rest, ok := c.heads.take(p)
			if !ok {
				if c.heads.overlong {
					c.fail(ErrBadResponse)
				}
				return
			}
			meta, err := c.pools.parseH1Response(head)
			if err != nil {
				c.fail(err)
				return
			}
			p = rest
			c.gotHeader = true
			c.bodyLeft = meta.BodySize
			c.trace.HTTPHeaders(c.sched.Now(), c.traceID, c.cur.stream, meta.Status, meta.BodySize)
			if c.cur.ev.OnHeaders != nil {
				c.cur.ev.OnHeaders(meta)
			}
			if c.closed || !c.hasCur {
				return
			}
		}
		n := min(c.bodyLeft, len(p))
		c.bodyLeft -= n
		p = p[n:]
		if c.bodyLeft > 0 {
			return
		}
		done := c.cur
		c.hasCur = false
		c.gotHeader = false
		c.trace.HTTPStreamClose(c.sched.Now(), c.traceID, done.stream)
		if done.ev.OnComplete != nil {
			done.ev.OnComplete()
		}
		c.next()
	}
}

func (c *h1Client) onClose(err error) {
	if err == nil {
		err = ErrConnClosed
	}
	c.fail(err)
}

// watchdogFire aborts a connection that has been silent for
// requestTimeout with requests outstanding. fail runs first so the
// retry fan-out sees ErrRequestTimeout rather than the transport's own
// error from the close callback.
func (c *h1Client) watchdogFire() {
	if c.closed {
		return
	}
	tls := c.tls
	c.fail(ErrRequestTimeout)
	if tls != nil {
		tls.Abort()
	}
}

func (c *h1Client) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	if c.hasCur {
		c.hasCur = false
		c.trace.HTTPStreamFail(c.sched.Now(), c.traceID, c.cur.stream, err.Error())
		if c.cur.ev.OnError != nil {
			c.cur.ev.OnError(err)
		}
		c.cur = h1Pending{}
	}
	for _, p := range c.queue {
		if p.ev.OnError != nil {
			p.ev.OnError(err)
		}
	}
	c.queue = nil
}

func (c *h1Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	if c.tls != nil {
		c.tls.Close()
	}
}

func (c *h1Client) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	if c.tls != nil {
		c.tls.Abort()
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

// h1ServerConn serves HTTP/1.1 on one TLS connection.
type h1ServerConn struct {
	tls     *tlssim.Conn
	handler Handler
	pools   *Pools
	heads   headCarry
	// req, ctx and respondFn are reused across requests: dispatch is
	// synchronous from onData and handlers copy what they need before
	// scheduling a delayed respond.
	req       Request
	ctx       ServerContext
	respondFn func(Response)
}

func newH1ServerConn(tls *tlssim.Conn, handler Handler, pools *Pools) *h1ServerConn {
	c := &h1ServerConn{tls: tls, handler: handler, pools: pools}
	c.respondFn = c.respond
	tls.SetDataFunc(c.onData)
	// Passive close: answer the client's FIN with our own so both
	// endpoints fully release ports and timers.
	tls.SetCloseFunc(func(err error) {
		if err == nil {
			tls.Close()
		}
	})
	return c
}

func (c *h1ServerConn) respond(resp Response) {
	c.tls.Write(c.pools.encodeH1Response(resp))
	writeBody(c.tls, resp.BodySize)
}

func (c *h1ServerConn) onData(p []byte) {
	for {
		head, rest, ok := c.heads.take(p)
		if !ok {
			if c.heads.overlong {
				c.tls.Abort()
			}
			return
		}
		p = rest
		if c.req, ok = c.pools.parseH1Head(head); !ok {
			continue
		}
		c.ctx = ServerContext{Req: &c.req, Protocol: H1, ServerName: c.tls.ServerName()}
		c.handler(&c.ctx, c.respondFn)
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
