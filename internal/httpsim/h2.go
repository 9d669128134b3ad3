package httpsim

import (
	"slices"

	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
)

// h2Client multiplexes requests as streams over one TLS/TCP connection.
type h2Client struct {
	client
	tlsWire
	parser blockParser
}

var _ ClientConn = (*h2Client)(nil)

// DialH2 opens an HTTP/2 connection to addr:port.
func DialH2(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg DialConfig) ClientConn {
	c := &h2Client{}
	c.dial(&c.client, c, host, addr, port, serverName, H2, cfg)
	return c
}

// send opens the next odd stream id: 1, 3, 5, ...
func (c *h2Client) send(r *request) {
	r.id = 2*c.sent - 1
	c.trace.HTTPStreamOpen(c.sched.Now(), c.traceID, r.id, r.req.Host, r.req.Path)
	writeBlock(&c.pools.Arena, c.tls, blockHeadersReq, uint32(r.id), flagEndStream, c.pools.requestHeaderBlock(r.req))
}

func (c *h2Client) parse(_ *request, data []byte) {
	for _, b := range c.parser.feed(data) {
		i := slices.IndexFunc(c.active, func(r *request) bool { return r.id == int64(b.streamID) })
		if i < 0 {
			continue
		}
		r := c.active[i]
		switch b.typ {
		case blockHeadersResp:
			if meta, err := c.pools.parseResponseHeaderBlock(b.payload); !c.headers(r, meta, err) {
				return
			}
			if r.bodyLeft == 0 && b.flags&flagEndStream != 0 {
				c.complete(r)
			}
		case blockData:
			r.bodyLeft -= b.size
			if r.bodyLeft <= 0 && b.flags&flagEndStream != 0 {
				c.complete(r)
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
