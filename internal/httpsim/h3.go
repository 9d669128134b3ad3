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
	// Pools, when non-nil, supplies the shared allocation arenas (QUIC
	// records, buffers, stream states, header caches). Nil gets a
	// private one.
	Pools *Pools
	// Trace, when non-nil, receives transport- and HTTP-level events
	// for this connection. Nil-safe: every emit is a no-op when nil.
	Trace *trace.Tracer
}

// h3Client maps each request to one QUIC stream.
type h3Client struct {
	client
	conn *quicsim.Conn
}

var _ ClientConn = (*h3Client)(nil)

// DialH3 opens an HTTP/3 connection to addr:port (the QUIC port).
func DialH3(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg H3DialConfig) ClientConn {
	cfg.Pools = orPrivate(cfg.Pools)
	c := &h3Client{}
	c.init(host.Scheduler(), H3, cfg.Pools, cfg.Trace, c)
	qcfg := cfg.QUIC
	qcfg.Trace = cfg.Trace
	qcfg.Pools = &cfg.Pools.QUIC
	c.conn = quicsim.Dial(host, addr, port, quicsim.ClientConfig{
		Config:        qcfg,
		ServerName:    serverName,
		Tokens:        cfg.Tokens,
		EnableZeroRTT: cfg.EnableZeroRTT,
		HandshakeCPU:  cfg.HandshakeCPU,
	}, func(*quicsim.Conn) { c.establish() })
	c.conn.SetCloseFunc(c.onClose)
	c.dog.init(c.sched, c.watchdogFire)
	return c
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

// h3Server handles one QUIC connection's request streams.
type h3Server struct {
	sched   *simnet.Scheduler
	conn    *quicsim.Conn
	handler Handler
	pools   *Pools
}

func newH3Server(sched *simnet.Scheduler, conn *quicsim.Conn, handler Handler, pools *Pools) *h3Server {
	s := &h3Server{sched: sched, conn: conn, handler: handler, pools: pools}
	conn.SetStreamFunc(s.onStream)
	conn.SetCloseFunc(func(error) {})
	return s
}

// h3SrvStream is the server-side per-stream state. Pooled in Pools
// with callbacks bound once per struct lifetime; each instance serves
// exactly one request stream (H3 maps one request to one stream), so
// the embedded Request and ServerContext are never shared between
// concurrent requests. It holds its stream from handler dispatch until
// respond, which may run after the connection died, recycles both.
type h3SrvStream struct {
	srv       *h3Server
	st        *quicsim.Stream
	parser    blockParser
	req       Request
	ctx       ServerContext
	dataFn    func([]byte)
	respondFn func(Response)
}

func (ss *h3SrvStream) reset() {
	ss.parser.rewind()
	parser, dataFn, respondFn := ss.parser, ss.dataFn, ss.respondFn
	*ss = h3SrvStream{parser: parser, dataFn: dataFn, respondFn: respondFn}
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
		// respond.
		ss.st.SetDataFunc(nil)
		ss.st.Hold()
		srv := ss.srv
		ss.req = srv.pools.parseRequestBlock(b.payload)
		ss.ctx = ServerContext{Req: &ss.req, Protocol: H3, ServerName: srv.conn.ServerName()}
		srv.handler(&ss.ctx, ss.respondFn)
		return
	}
	if ss.parser.overlong {
		ss.srv.conn.Abort()
	}
}

// respond writes the response (nothing, on a dead stream) and lets go
// of the stream and the state, which nothing else reaches.
func (ss *h3SrvStream) respond(resp Response) {
	a := &ss.srv.pools.Arena
	writeBlock(a, ss.st, blockHeadersResp, 0, 0, ss.srv.pools.responseHeaderBlock(resp))
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
	ss.srv.pools.h3srv.Retire(ss, ss.srv.sched)
}
