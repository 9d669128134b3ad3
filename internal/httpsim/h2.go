package httpsim

import (
	"sort"
	"time"

	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
)

type h2Pending struct {
	req *Request
	ev  RequestEvents

	meta     ResponseMeta
	gotMeta  bool
	bodyLeft int
}

// h2Client multiplexes requests as streams over one TLS/TCP connection.
type h2Client struct {
	sched       *simnet.Scheduler
	tls         *tlssim.Conn
	established bool
	hsDur       time.Duration
	sslDur      time.Duration
	resumed     bool
	closed      bool

	trace   *trace.Tracer
	traceID uint32
	pools   *Pools

	parser  blockParser
	streams map[uint32]*h2Pending
	nextID  uint32
	queue   []h2Pending
	dog     reqWatchdog
}

var _ ClientConn = (*h2Client)(nil)

// DialH2 opens an HTTP/2 connection to addr:port.
func DialH2(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg DialConfig) ClientConn {
	cfg.Pools = orPrivate(cfg.Pools)
	c := &h2Client{
		sched:   host.Scheduler(),
		streams: make(map[uint32]*h2Pending),
		nextID:  1,
		trace:   cfg.Trace,
		pools:   cfg.Pools,
	}
	dialStart := c.sched.Now()
	dialTLS(host, addr, port, serverName, H2, cfg, func(conn *tlssim.Conn, err error) {
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
		c.flush()
	}, func(conn *tlssim.Conn) { c.tls = conn })
	c.dog.init(c.sched, c.watchdogFire)
	return c
}

func (c *h2Client) Protocol() Protocol { return H2 }

func (c *h2Client) Established() bool { return c.established }

func (c *h2Client) HandshakeDuration() time.Duration { return c.hsDur }

func (c *h2Client) SSLDuration() time.Duration { return c.sslDur }

func (c *h2Client) TraceID() uint32 { return c.traceID }

func (c *h2Client) Resumed() bool { return c.resumed }

func (c *h2Client) InFlight() int { return len(c.streams) + len(c.queue) }

func (c *h2Client) Do(req *Request, ev RequestEvents) {
	if c.closed {
		if ev.OnError != nil {
			ev.OnError(ErrConnClosed)
		}
		return
	}
	if !c.established {
		c.queue = append(c.queue, h2Pending{req: req, ev: ev})
		c.dog.touch(c.InFlight())
		return
	}
	c.send(h2Pending{req: req, ev: ev})
	c.dog.touch(c.InFlight())
}

func (c *h2Client) flush() {
	q := c.queue
	c.queue = nil
	for _, p := range q {
		if c.closed {
			return
		}
		c.send(p)
	}
}

func (c *h2Client) send(p h2Pending) {
	id := c.nextID
	c.nextID += 2
	sp := c.pools.getH2Pending(p)
	c.streams[id] = sp
	c.trace.HTTPStreamOpen(c.sched.Now(), c.traceID, int64(id), p.req.Host, p.req.Path)
	writeBlock(&c.pools.Arena, c.tls, blockHeadersReq, id, flagEndStream, c.pools.requestHeaderBlock(p.req))
	if sp.ev.OnSent != nil {
		sp.ev.OnSent()
	}
}

func (c *h2Client) onData(data []byte) {
	c.parse(data)
	if !c.closed {
		// Response bytes arrived: reset the silence budget, or disarm it
		// entirely if this delivery completed the last request.
		c.dog.touch(c.InFlight())
	}
}

func (c *h2Client) parse(data []byte) {
	for _, b := range c.parser.feed(data) {
		p, ok := c.streams[b.streamID]
		if !ok {
			continue
		}
		switch b.typ {
		case blockHeadersResp:
			meta, err := c.pools.parseResponseHeaderBlock(b.payload)
			if err != nil {
				c.fail(err)
				return
			}
			p.meta = meta
			p.gotMeta = true
			p.bodyLeft = meta.BodySize
			c.trace.HTTPHeaders(c.sched.Now(), c.traceID, int64(b.streamID), meta.Status, meta.BodySize)
			if p.ev.OnHeaders != nil {
				p.ev.OnHeaders(meta)
			}
			if p.bodyLeft == 0 && b.flags&flagEndStream != 0 {
				c.finish(b.streamID, p)
			}
		case blockData:
			p.bodyLeft -= b.size
			if p.bodyLeft <= 0 && b.flags&flagEndStream != 0 {
				c.finish(b.streamID, p)
			}
		}
		if c.closed {
			return
		}
	}
	if c.parser.overlong {
		c.fail(ErrBadResponse)
	}
}

func (c *h2Client) finish(id uint32, p *h2Pending) {
	delete(c.streams, id)
	c.trace.HTTPStreamClose(c.sched.Now(), c.traceID, int64(id))
	if p.ev.OnComplete != nil {
		p.ev.OnComplete()
	}
	c.pools.putH2Pending(p)
}

func (c *h2Client) onClose(err error) {
	if err == nil {
		err = ErrConnClosed
	}
	c.fail(err)
}

// watchdogFire aborts a connection that has been silent for
// requestTimeout with requests outstanding. fail runs first so the
// retry fan-out sees ErrRequestTimeout rather than the transport's own
// error from the close callback.
func (c *h2Client) watchdogFire() {
	if c.closed {
		return
	}
	tls := c.tls
	c.fail(ErrRequestTimeout)
	if tls != nil {
		tls.Abort()
	}
}

func (c *h2Client) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	// Fail pending streams in id (send) order: map iteration would
	// scramble the error fan-out, and with it retry scheduling.
	ids := make([]uint32, 0, len(c.streams))
	for id := range c.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := c.streams[id]
		c.trace.HTTPStreamFail(c.sched.Now(), c.traceID, int64(id), err.Error())
		if p.ev.OnError != nil {
			p.ev.OnError(err)
		}
		c.pools.putH2Pending(p)
	}
	c.streams = make(map[uint32]*h2Pending)
	for _, p := range c.queue {
		if p.ev.OnError != nil {
			p.ev.OnError(err)
		}
	}
	c.queue = nil
}

func (c *h2Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	if c.tls != nil {
		c.tls.Close()
	}
}

func (c *h2Client) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	if c.tls != nil {
		c.tls.Abort()
	}
}

// --- server side ---

type h2Response struct {
	id        uint32
	remaining int
}

// h2SendWatermark bounds the unsent transport backlog the server keeps
// committed: response bodies are pumped in bodyChunkSize frames only
// while the TCP send buffer holds less than this, so a later response's
// HEADERS frame never queues behind megabytes of an earlier body —
// emulating HTTP/2 flow-controlled frame scheduling.
const h2SendWatermark = 32 * 1024

// h2ServerConn serves HTTP/2 on one TLS connection. Active response
// bodies are interleaved round-robin in bodyChunkSize DATA frames under
// the transport backpressure watermark.
type h2ServerConn struct {
	tls     *tlssim.Conn
	handler Handler
	pools   *Pools
	parser  blockParser
	active  []*h2Response
	pumping bool
	// req and ctx are reused across this connection's requests:
	// dispatch is synchronous from onData and handlers copy what they
	// need before scheduling a delayed respond, so neither outlives the
	// handler call.
	req Request
	ctx ServerContext
}

func newH2ServerConn(tls *tlssim.Conn, handler Handler, pools *Pools) *h2ServerConn {
	c := &h2ServerConn{tls: tls, handler: handler, pools: pools}
	tls.SetDataFunc(c.onData)
	// Passive close: answer the client's FIN with our own so both
	// endpoints fully release ports and timers.
	tls.SetCloseFunc(func(err error) {
		if err == nil {
			tls.Close()
		}
	})
	tls.SetDrainFunc(h2SendWatermark, c.pump)
	return c
}

func (c *h2ServerConn) onData(data []byte) {
	for _, b := range c.parser.feed(data) {
		if b.typ != blockHeadersReq {
			continue
		}
		id := b.streamID
		c.req = c.pools.parseRequestBlock(b.payload)
		c.ctx = ServerContext{Req: &c.req, Protocol: H2, ServerName: c.tls.ServerName()}
		c.handler(&c.ctx, func(resp Response) { c.respond(id, resp) })
	}
	if c.parser.overlong {
		c.tls.Abort()
	}
}

func (c *h2ServerConn) respond(id uint32, resp Response) {
	flags := uint8(0)
	if resp.BodySize == 0 {
		flags = flagEndStream
	}
	writeBlock(&c.pools.Arena, c.tls, blockHeadersResp, id, flags, c.pools.responseHeaderBlock(resp))
	if resp.BodySize > 0 {
		c.active = append(c.active, c.pools.getH2Response(id, resp.BodySize))
		c.pump()
	}
}

// pump drains active response bodies round-robin into the TLS stream
// while the transport backlog stays under the watermark; transmission
// progress re-invokes it via the drain callback.
func (c *h2ServerConn) pump() {
	if c.pumping {
		return
	}
	c.pumping = true
	defer func() { c.pumping = false }()
	for len(c.active) > 0 && c.tls.UnsentBytes() < h2SendWatermark {
		next := c.active[:0]
		for _, r := range c.active {
			n := r.remaining
			if n > bodyChunkSize {
				n = bodyChunkSize
			}
			r.remaining -= n
			flags := uint8(0)
			if r.remaining == 0 {
				flags = flagEndStream
			}
			writeBodyBlock(&c.pools.Arena, c.tls, r.id, flags, n)
			if r.remaining > 0 {
				next = append(next, r)
			} else {
				c.pools.h2Resps.Put(r)
			}
		}
		c.active = next
	}
}
