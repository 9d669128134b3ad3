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

// h3Stream is the client-side per-request state. Instances are pooled
// in Pools (see Pools.getH3Stream); dataFn is bound once per struct
// lifetime.
type h3Stream struct {
	c   *h3Client
	req *Request
	ev  RequestEvents
	s   *quicsim.Stream // nil until sent

	parser   blockParser
	dataFn   func([]byte)
	id       int64
	gotMeta  bool
	bodyLeft int
	done     bool
}

// reset clears per-request state for pooling, keeping the parser's
// buffers and the bound data callback.
func (st *h3Stream) reset() {
	st.parser.rewind()
	parser, dataFn := st.parser, st.dataFn
	*st = h3Stream{parser: parser, dataFn: dataFn}
}

// h3Client maps each request to one QUIC stream.
type h3Client struct {
	sched       *simnet.Scheduler
	conn        *quicsim.Conn
	pools       *Pools
	established bool
	closed      bool
	trace       *trace.Tracer
	queue       []*h3Stream
	// actives keeps send order: failure fan-out must visit streams
	// deterministically (map iteration would scramble retry scheduling).
	actives []*h3Stream
	dog     reqWatchdog
}

var _ ClientConn = (*h3Client)(nil)

// DialH3 opens an HTTP/3 connection to addr:port (the QUIC port).
func DialH3(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, cfg H3DialConfig) ClientConn {
	cfg.Pools = orPrivate(cfg.Pools)
	c := &h3Client{sched: host.Scheduler(), trace: cfg.Trace, pools: cfg.Pools}
	qcfg := cfg.QUIC
	qcfg.Trace = cfg.Trace
	qcfg.Pools = &cfg.Pools.QUIC
	c.conn = quicsim.Dial(host, addr, port, quicsim.ClientConfig{
		Config:        qcfg,
		ServerName:    serverName,
		Tokens:        cfg.Tokens,
		EnableZeroRTT: cfg.EnableZeroRTT,
		HandshakeCPU:  cfg.HandshakeCPU,
	}, func(*quicsim.Conn) {
		c.established = true
		c.flush()
	})
	c.conn.SetCloseFunc(c.onClose)
	c.dog.init(c.sched, c.watchdogFire)
	return c
}

func (c *h3Client) Protocol() Protocol { return H3 }

func (c *h3Client) Established() bool { return c.established }

func (c *h3Client) HandshakeDuration() time.Duration { return c.conn.HandshakeDuration() }

// SSLDuration equals HandshakeDuration: QUIC's handshake is integrated
// transport+crypto, attributed entirely to SSL (Chrome's convention).
func (c *h3Client) SSLDuration() time.Duration { return c.conn.HandshakeDuration() }

func (c *h3Client) TraceID() uint32 { return c.conn.TraceID() }

func (c *h3Client) Resumed() bool { return c.conn.Resumed() }

func (c *h3Client) InFlight() int { return len(c.actives) + len(c.queue) }

func (c *h3Client) Do(req *Request, ev RequestEvents) {
	if c.closed {
		if ev.OnError != nil {
			ev.OnError(ErrConnClosed)
		}
		return
	}
	st := c.pools.getH3Stream(c, req, ev)
	if !c.established {
		c.queue = append(c.queue, st)
		c.dog.touch(c.InFlight())
		return
	}
	c.send(st)
	c.dog.touch(c.InFlight())
}

func (c *h3Client) flush() {
	q := c.queue
	c.queue = nil
	for _, st := range q {
		if c.closed {
			return
		}
		c.send(st)
	}
}

func (c *h3Client) send(st *h3Stream) {
	c.actives = append(c.actives, st)
	s := c.conn.OpenStream()
	st.s = s
	st.id = int64(s.ID())
	s.SetDataFunc(st.dataFn)
	c.trace.HTTPStreamOpen(c.sched.Now(), c.conn.TraceID(), st.id, st.req.Host, st.req.Path)
	writeBlock(&c.pools.Arena, s, blockHeadersReq, 0, flagEndStream, c.pools.requestHeaderBlock(st.req))
	s.CloseWrite()
	if st.ev.OnSent != nil {
		st.ev.OnSent()
	}
}

func (c *h3Client) onStreamData(st *h3Stream, data []byte) {
	c.parseStreamData(st, data)
	if !c.closed {
		// Response bytes arrived: reset the silence budget, or disarm it
		// entirely if this delivery completed the last request.
		c.dog.touch(c.InFlight())
	}
}

func (c *h3Client) parseStreamData(st *h3Stream, data []byte) {
	if st.done || c.closed {
		return
	}
	for _, b := range st.parser.feed(data) {
		switch b.typ {
		case blockHeadersResp:
			meta, err := c.pools.parseResponseHeaderBlock(b.payload)
			if err != nil {
				c.fail(err)
				return
			}
			st.gotMeta = true
			st.bodyLeft = meta.BodySize
			c.trace.HTTPHeaders(c.sched.Now(), c.conn.TraceID(), st.id, meta.Status, meta.BodySize)
			if st.ev.OnHeaders != nil {
				st.ev.OnHeaders(meta)
			}
			if st.bodyLeft == 0 {
				c.finish(st)
				return
			}
		case blockData:
			st.bodyLeft -= b.size
			if st.gotMeta && st.bodyLeft <= 0 {
				c.finish(st)
				return
			}
		}
	}
	if st.parser.overlong {
		c.fail(ErrBadResponse)
	}
}

func (c *h3Client) finish(st *h3Stream) {
	if st.done {
		return
	}
	st.done = true
	for i, a := range c.actives {
		if a == st {
			c.actives = append(c.actives[:i], c.actives[i+1:]...)
			break
		}
	}
	c.trace.HTTPStreamClose(c.sched.Now(), c.conn.TraceID(), st.id)
	if st.ev.OnComplete != nil {
		st.ev.OnComplete()
	}
	c.retire(st)
}

// retire recycles a state whose request has completed or failed: its
// stream stops calling it (a late delivery was ignored anyway), and
// nothing else holds it.
func (c *h3Client) retire(st *h3Stream) {
	if st.s != nil {
		st.s.SetDataFunc(nil)
	}
	c.pools.h3cli.Retire(st, c.sched)
}

func (c *h3Client) onClose(err error) {
	if err == nil {
		err = ErrConnClosed
	}
	c.fail(err)
}

// watchdogFire aborts a connection that has been silent for
// requestTimeout with requests outstanding. fail runs first so the
// retry fan-out sees ErrRequestTimeout rather than the transport's own
// ErrAborted from the close callback.
func (c *h3Client) watchdogFire() {
	if c.closed {
		return
	}
	c.fail(ErrRequestTimeout)
	c.conn.Abort()
}

func (c *h3Client) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	for _, st := range c.queue {
		st.done = true
		if st.ev.OnError != nil {
			st.ev.OnError(err)
		}
		c.retire(st)
	}
	c.queue = nil
	for _, st := range c.actives {
		st.done = true
		c.trace.HTTPStreamFail(c.sched.Now(), c.conn.TraceID(), st.id, err.Error())
		if st.ev.OnError != nil {
			st.ev.OnError(err)
		}
		c.retire(st)
	}
	c.actives = nil
}

func (c *h3Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	c.conn.Close()
}

func (c *h3Client) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	c.conn.Abort()
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
