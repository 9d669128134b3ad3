package httpsim

import (
	"time"

	"h3cdn/internal/quicsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/trace"
)

// H3DialConfig carries QUIC-specific client knobs.
type H3DialConfig struct {
	// Tokens enables QUIC session resumption.
	Tokens *quicsim.TokenStore
	// EnableZeroRTT sends 0-RTT requests on resumed connections.
	EnableZeroRTT bool
	// QUIC tunes the transport.
	QUIC quicsim.Config
	// HandshakeCPU models client crypto compute time.
	HandshakeCPU time.Duration
	// Pools supplies the shared allocation arenas (QUIC records,
	// buffers, stream states, header caches). Required.
	Pools *Pools
	// Trace, when non-nil, receives transport- and HTTP-level events
	// for this connection. Nil-safe: every emit is a no-op when nil.
	Trace *trace.Tracer
}

// h3Client maps each request to one QUIC stream.
type h3Client struct {
	client
	conn  *quicsim.Conn
	estFn func(*quicsim.Conn) // bound once
}

var _ ClientConn = (*h3Client)(nil)

// DialH3 opens an HTTP/3 connection to addr:port (the QUIC port).
func DialH3(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg H3DialConfig) ClientConn {
	c, ok := cfg.Pools.h3.Get(host.Scheduler(), (*h3Client).reset)
	if !ok {
		c = newH3Client()
	}
	c.init(host.Scheduler(), H3, cfg.Pools, cfg.Trace)
	qcfg := cfg.QUIC
	qcfg.Trace = cfg.Trace
	qcfg.Pools = &cfg.Pools.QUIC
	c.conn = quicsim.Dial(host, addr, port, quicsim.ClientConfig{
		Config:        qcfg,
		ServerName:    serverName,
		Tokens:        cfg.Tokens,
		EnableZeroRTT: cfg.EnableZeroRTT,
		HandshakeCPU:  cfg.HandshakeCPU,
	}, c.estFn)
	c.conn.SetCloseFunc(c.onCloseFn)
	c.dog.init(c.sched, c.fireFn)
	return c
}

func newH3Client() *h3Client {
	c := &h3Client{}
	c.bind(c)
	c.estFn = c.onEstablished
	return c
}

func (c *h3Client) onEstablished(*quicsim.Conn) { c.establish() }

func (c *h3Client) reset() {
	c.client.reset()
	c.conn = nil
}

// settled: once the record is closed its QUIC conn calls it no more
// but through the close callback, which Release cuts. The record closes
// its conn, or the conn failed, or it failed on a malformed response,
// which only an established conn delivers.
func (*h3Client) settled() bool { return true }

func (c *h3Client) recycle() {
	c.conn.Release()
	c.pools.h3.Retire(c, c.sched)
}

func (c *h3Client) HandshakeDuration() time.Duration { return c.conn.HandshakeDuration() }

// SSLDuration equals HandshakeDuration: QUIC's handshake is integrated
// transport+crypto, attributed entirely to SSL (Chrome's convention).
func (c *h3Client) SSLDuration() time.Duration { return c.conn.HandshakeDuration() }

func (c *h3Client) TraceID() uint32 { return c.conn.TraceID() }

func (c *h3Client) Resumed() bool { return c.conn.Resumed() }

func (c *h3Client) closeTransport(abort bool) {
	if abort {
		c.conn.Abort()
	} else {
		c.conn.Close()
	}
}

func (c *h3Client) send(r *request) {
	if r.dataFn == nil {
		r.dataFn = func(data []byte) { r.c.deliver(r, data) }
	}
	s := c.conn.OpenStream()
	r.stream = s
	r.id = int64(s.ID())
	s.SetDataFunc(r.dataFn)
	c.trace.HTTPStreamOpen(c.sched.Now(), c.conn.TraceID(), r.id, r.req.Host, r.req.Path)
	writeBlock(&c.pools.Arena, s, blockHeadersReq, 0, flagEndStream, c.pools.requestHeaderBlock(r.req))
	s.CloseWrite()
}

func (c *h3Client) parse(r *request, data []byte) {
	for _, b := range r.parser.feed(data) {
		switch b.typ {
		case blockHeadersResp:
			if meta, err := c.pools.parseResponseHeaderBlock(b.payload); !c.headers(r, meta, err) {
				return
			}
			if r.bodyLeft == 0 {
				c.complete(r)
				return
			}
		case blockData:
			r.bodyLeft -= b.size
			if r.gotMeta && r.bodyLeft <= 0 {
				c.complete(r)
				return
			}
		}
	}
	if r.parser.overlong {
		c.fail(ErrBadResponse)
	}
}

// --- server side ---

// h3Server handles one QUIC connection's request streams. It is pooled
// in Pools with its callbacks bound once per struct, and retires when
// its connection reports the end; its stream states keep what they need
// to answer after that.
type h3Server struct {
	sched   *simnet.Scheduler
	conn    *quicsim.Conn
	handler Handler
	pools   *Pools

	streamFn func(*quicsim.Stream)
	closeFn  func(error)
}

func newH3Server(sched *simnet.Scheduler, conn *quicsim.Conn, handler Handler, pools *Pools) *h3Server {
	s, ok := pools.h3srv.Get(sched, (*h3Server).reset)
	if !ok {
		s = allocH3Server()
	}
	s.sched, s.conn, s.handler, s.pools = sched, conn, handler, pools
	conn.SetStreamFunc(s.streamFn)
	conn.SetCloseFunc(s.closeFn)
	return s
}

func allocH3Server() *h3Server {
	s := &h3Server{}
	s.streamFn, s.closeFn = s.onStream, s.onClose
	return s
}

func (s *h3Server) reset() {
	*s = h3Server{streamFn: s.streamFn, closeFn: s.closeFn}
}

// onClose retires the server: its connection has torn down, so it
// delivers no further stream or data.
func (s *h3Server) onClose(error) {
	s.conn.Release()
	s.pools.h3srv.Retire(s, s.sched)
}

// h3SrvStream is the server-side per-stream state. Pooled in Pools
// with callbacks bound once per struct lifetime; each instance serves
// exactly one request stream (H3 maps one request to one stream), so
// the embedded Request and ServerContext are never shared between
// concurrent requests. It holds its stream from handler dispatch until
// its responder answers, which may be after the connection died, and
// recycles both then.
type h3SrvStream struct {
	pools  *Pools
	sched  *simnet.Scheduler
	srv    *h3Server // while the stream delivers
	st     *quicsim.Stream
	gen    uint32 // incarnation: reset bumps it
	parser blockParser
	req    Request
	ctx    ServerContext
	dataFn func([]byte)
}

func newH3SrvStream() *h3SrvStream {
	ss := &h3SrvStream{}
	ss.dataFn = ss.onData
	return ss
}

func (ss *h3SrvStream) reset() {
	ss.parser.rewind()
	*ss = h3SrvStream{gen: ss.gen + 1, parser: ss.parser, dataFn: ss.dataFn}
}

func (s *h3Server) onStream(st *quicsim.Stream) {
	ss := s.pools.getH3SrvStream(s, st)
	st.SetDataFunc(ss.dataFn)
}

func (ss *h3SrvStream) onData(data []byte) {
	for _, b := range ss.parser.feed(data) {
		if b.typ != blockHeadersReq {
			continue
		}
		// The stream's one request: stop reading it, and hold it for
		// the responder.
		ss.st.SetDataFunc(nil)
		ss.st.Hold()
		srv := ss.srv
		ss.srv = nil
		ss.req = ss.pools.parseRequestBlock(b.payload)
		r := ss.pools.getResponder(ss, ss.gen, 0)
		ss.ctx = ServerContext{Req: &ss.req, Protocol: H3, ServerName: srv.conn.ServerName(), responder: r}
		srv.handler(&ss.ctx, r.respondFn)
		return
	}
	if ss.parser.overlong {
		ss.srv.conn.Abort()
	}
}

func (ss *h3SrvStream) incarnation() uint32 { return ss.gen }

// respond writes the response (nothing, on a dead stream) and lets go
// of the stream and the state, which nothing else reaches.
func (ss *h3SrvStream) respond(_ uint32, resp Response) {
	a := &ss.pools.Arena
	writeBlock(a, ss.st, blockHeadersResp, 0, 0, ss.pools.responseHeaderBlock(resp))
	for left := resp.BodySize; left > 0; {
		n := left
		if n > bodyChunkSize {
			n = bodyChunkSize
		}
		left -= n
		writeBodyBlock(a, ss.st, 0, 0, n)
	}
	ss.st.CloseWrite()
	ss.st.Release()
	ss.pools.h3streams.Retire(ss, ss.sched)
}
