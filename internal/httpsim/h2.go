package httpsim

import (
	"slices"

	"h3cdn/internal/simnet"
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
	c, ok := cfg.Pools.h2.Get(host.Scheduler(), (*h2Client).reset)
	if !ok {
		c = newH2Client()
	}
	c.dial(host, addr, port, serverName, H2, cfg)
	return c
}

func newH2Client() *h2Client {
	c := &h2Client{}
	c.tlsWire.bind(&c.client, c)
	return c
}

func (c *h2Client) reset() {
	c.client.reset()
	c.tlsWire.reset()
	c.parser.rewind()
}

func (c *h2Client) recycle() {
	c.release()
	c.pools.h2.Retire(c, c.sched)
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

// h2Response is a response body being pumped: its stream and the bytes
// it has left to send.
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

// onDataH2 dispatches every request the delivery completes. The
// server interleaves active response bodies round-robin in
// bodyChunkSize DATA frames under the transport backpressure watermark.
func (c *serverConn) onDataH2(data []byte) {
	for _, b := range c.parser.feed(data) {
		if b.typ != blockHeadersReq {
			continue
		}
		c.req = c.srv.cfg.Pools.parseRequestBlock(b.payload)
		c.dispatch(b.streamID)
	}
	if c.parser.overlong {
		c.abort()
	}
}

func (c *serverConn) respondH2(id uint32, resp Response) {
	pl := c.srv.cfg.Pools
	flags := uint8(0)
	if resp.BodySize == 0 {
		flags = flagEndStream
	}
	writeBlock(&pl.Arena, c.tls, blockHeadersResp, id, flags, pl.responseHeaderBlock(resp))
	if resp.BodySize > 0 {
		c.active = append(c.active, h2Response{id: id, remaining: resp.BodySize})
		c.pump()
	}
}

// pump drains active response bodies round-robin into the TLS stream
// while the transport backlog stays under the watermark; transmission
// progress re-invokes it via the drain callback.
func (c *serverConn) pump() {
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
			writeBodyBlock(&c.srv.cfg.Pools.Arena, c.tls, r.id, flags, n)
			if r.remaining > 0 {
				next = append(next, r)
			}
		}
		c.active = next
	}
}
