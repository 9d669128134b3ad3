package httpsim

import (
	"slices"
	"time"

	"h3cdn/internal/quicsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
)

// wire is what the three protocols do differently: how a request goes
// out, how response bytes are parsed, and what transport carries them.
type wire interface {
	// send writes r and sets r.id, emitting the stream-open trace event
	// before the write.
	send(r *request)
	// parse consumes response bytes: r is the request whose stream
	// carried them, nil for H1/H2's one connection-wide stream.
	parse(r *request, p []byte)
	// closeTransport closes (abort: resets) the transport, if dialed.
	closeTransport(abort bool)
	TraceID() uint32
	// settled reports that no dial or handshake callback of the
	// transport can still reach the record.
	settled() bool
	// recycle cuts the transport's remaining callbacks into the record
	// and retires it into its recycler.
	recycle()
}

// request is the client-side state of one request, pooled in
// Pools.reqs. The H3 fields' parser buffers and dataFn outlive a reset:
// dataFn is bound once per struct lifetime and reads c at call time.
type request struct {
	c        *client
	req      *Request
	ev       RequestEvents
	id       int64
	gotMeta  bool
	bodyLeft int

	stream *quicsim.Stream // H3: nil until sent
	parser blockParser     // H3: the stream's own framing
	dataFn func([]byte)    // H3: the stream's data callback
}

// reset clears per-request state for pooling, keeping the parser's
// buffers and the bound data callback.
func (r *request) reset() {
	r.parser.rewind()
	parser, dataFn := r.parser, r.dataFn
	*r = request{parser: parser, dataFn: dataFn}
}

// client is the request lifecycle shared by the HTTP/1.1, HTTP/2 and
// HTTP/3 client connections; its wire supplies the rest. Requests wait
// in queued until the connection has room, then move to active, both
// kept in send order. Exactly one of OnComplete or OnError ends each
// request, however the connection ends.
//
// The record is pooled in Pools, per protocol, with its callbacks bound
// once per struct. It retires once it is closed, its holder has released
// it (Release) and its transport can no longer call it (wire.settled).
type client struct {
	sched *simnet.Scheduler
	pools *Pools
	trace *trace.Tracer
	w     wire
	proto Protocol

	established bool
	closed      bool
	released    bool // the holder makes no further call
	retired     bool
	sent        int64 // requests sent so far
	queued      []*request
	active      []*request
	dog         reqWatchdog

	onDataFn  func([]byte) // onData, bound once
	onCloseFn func(error)  // onClose, bound once
	fireFn    func()       // watchdogFire, bound once
}

// bind sets w and the bound callbacks of a newly allocated record.
func (c *client) bind(w wire) {
	c.w = w
	c.onDataFn, c.onCloseFn, c.fireFn = c.onData, c.onClose, c.watchdogFire
}

// reset clears a retired record for reuse, keeping the request arrays
// (emptied by fail) and the bound callbacks.
func (c *client) reset() {
	*c = client{
		w:         c.w,
		queued:    c.queued[:0],
		active:    c.active[:0],
		onDataFn:  c.onDataFn,
		onCloseFn: c.onCloseFn,
		fireFn:    c.fireFn,
	}
}

// init sets c up, not yet established, as a proto client. The caller
// dials, then arms the watchdog.
func (c *client) init(sched *simnet.Scheduler, proto Protocol, pools *Pools, tr *trace.Tracer) {
	c.sched, c.proto, c.pools, c.trace = sched, proto, pools, tr
}

// Release tells the connection that its holder makes no further call; it
// is closed first if still open. The record is recycled once its
// transport can no longer call it: at once, unless a dial or handshake
// is still to report back.
func (c *client) Release() {
	c.Close()
	c.released = true
	c.maybeRetire()
}

// maybeRetire recycles the record once nothing reaches it.
func (c *client) maybeRetire() {
	if c.retired || !c.closed || !c.released || !c.w.settled() {
		return
	}
	c.retired = true
	c.w.recycle()
}

func (c *client) Protocol() Protocol { return c.proto }

func (c *client) InFlight() int { return len(c.queued) + len(c.active) }

func (c *client) Do(req *Request, ev RequestEvents) {
	if c.closed {
		if ev.OnError != nil {
			ev.OnError(ErrConnClosed)
		}
		return
	}
	c.queued = append(c.queued, c.pools.getRequest(c, req, ev))
	c.flush()
	if !c.closed {
		c.dog.touch(c.InFlight())
	}
}

// establish marks the handshake done and sends what waited for it.
func (c *client) establish() {
	c.established = true
	c.flush()
}

// flush sends queued requests while the connection has room: once it is
// established, and for HTTP/1.1 only while nothing is in flight. It pops
// the queue by shifting it, so Do keeps appending into one array, and
// re-reads it after every callback, which may issue or fail requests.
func (c *client) flush() {
	for !c.closed && len(c.queued) > 0 && c.established && (c.proto != H1 || len(c.active) == 0) {
		r := c.queued[0]
		c.queued = append(c.queued[:0], c.queued[1:]...)
		c.active = append(c.active, r)
		c.sent++
		c.w.send(r)
		if r.ev.OnSent != nil {
			r.ev.OnSent()
		}
	}
}

// onData receives H1/H2's connection-wide response stream.
func (c *client) onData(p []byte) { c.deliver(nil, p) }

// deliver parses response bytes, then resets the silence budget, or
// disarms it if this delivery completed the last request.
func (c *client) deliver(r *request, p []byte) {
	c.w.parse(r, p)
	if !c.closed {
		c.dog.touch(c.InFlight())
	}
}

// headers delivers r's response head, or fails the connection on a
// malformed one (err). It reports whether parsing may go on.
func (c *client) headers(r *request, meta ResponseMeta, err error) bool {
	if err != nil {
		c.fail(err)
		return false
	}
	r.gotMeta, r.bodyLeft = true, meta.BodySize
	c.trace.HTTPHeaders(c.sched.Now(), c.w.TraceID(), r.id, meta.Status, meta.BodySize)
	if r.ev.OnHeaders != nil {
		r.ev.OnHeaders(meta)
	}
	return !c.closed
}

// complete ends r with OnComplete and sends what waited for the room.
func (c *client) complete(r *request) {
	i := slices.Index(c.active, r)
	c.active = slices.Delete(c.active, i, i+1)
	c.trace.HTTPStreamClose(c.sched.Now(), c.w.TraceID(), r.id)
	if r.ev.OnComplete != nil {
		r.ev.OnComplete()
	}
	c.retire(r)
	c.flush()
}

// retire recycles a record whose request has completed or failed: its
// stream, if any, stops calling it, and nothing else holds it.
func (c *client) retire(r *request) {
	if r.stream != nil {
		r.stream.SetDataFunc(nil)
	}
	c.pools.reqs.Retire(r, c.sched)
}

func (c *client) onClose(err error) {
	if err == nil {
		err = ErrConnClosed
	}
	c.fail(err)
}

// fail closes the connection's request side: sent requests get OnError
// in send order, then queued ones. Callbacks that re-enter the
// connection find it closed.
func (c *client) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.dog.release()
	for _, r := range c.active {
		c.trace.HTTPStreamFail(c.sched.Now(), c.w.TraceID(), r.id, err.Error())
		if r.ev.OnError != nil {
			r.ev.OnError(err)
		}
		c.retire(r)
	}
	for _, r := range c.queued {
		if r.ev.OnError != nil {
			r.ev.OnError(err)
		}
		c.retire(r)
	}
	clear(c.active)
	clear(c.queued)
	c.active, c.queued = c.active[:0], c.queued[:0]
}

// Close fails every outstanding request with ErrConnClosed, then closes
// the transport.
func (c *client) Close() { c.shut(ErrConnClosed, false) }

// Abort fails every outstanding request with ErrConnClosed, then resets
// the transport.
func (c *client) Abort() { c.shut(ErrConnClosed, true) }

// watchdogFire aborts a connection that has been silent for
// requestTimeout with requests outstanding. fail runs first so the
// retry fan-out sees ErrRequestTimeout rather than the transport's own
// error from the close callback.
func (c *client) watchdogFire() { c.shut(ErrRequestTimeout, true) }

func (c *client) shut(err error, abort bool) {
	if c.closed {
		return
	}
	c.fail(err)
	c.w.closeTransport(abort)
}

// tlsWire is the TCP+TLS transport under an H1 or H2 client.
type tlsWire struct {
	c       *client
	tls     *tlssim.Conn // nil until TCP connects
	hsDur   time.Duration
	sslDur  time.Duration
	resumed bool
	traceID uint32

	// dialing: TCP has neither connected nor failed, so it may still
	// call onTCP or onTCPClose. hsPending: the TLS handshake may still
	// call onHandshake.
	dialing   bool
	hsPending bool
	dialStart time.Duration
	tlsCfg    tlssim.ClientConfig // all but TraceConn, set at connect

	onTCPFn       func(*tcpsim.Conn) // bound once, as are the two below
	onTCPCloseFn  func(error)
	onHandshakeFn func(error)
}

// bind sets up a newly allocated record: c is its request lifecycle and
// w its outer struct.
func (t *tlsWire) bind(c *client, w wire) {
	c.bind(w)
	t.c = c
	t.onTCPFn, t.onTCPCloseFn, t.onHandshakeFn = t.onTCP, t.onTCPClose, t.onHandshake
}

func (t *tlsWire) reset() {
	*t = tlsWire{c: t.c, onTCPFn: t.onTCPFn, onTCPCloseFn: t.onTCPCloseFn, onHandshakeFn: t.onHandshakeFn}
}

func (t *tlsWire) HandshakeDuration() time.Duration { return t.hsDur }

func (t *tlsWire) SSLDuration() time.Duration { return t.sslDur }

func (t *tlsWire) TraceID() uint32 { return t.traceID }

func (t *tlsWire) Resumed() bool { return t.resumed }

func (t *tlsWire) closeTransport(abort bool) {
	switch {
	case t.tls == nil:
		return
	case abort:
		t.tls.Abort()
	default:
		t.tls.Close()
	}
	// A closed TLS conn reports nothing more, its handshake included.
	t.hsPending = false
}

func (t *tlsWire) settled() bool { return !t.dialing && !t.hsPending }

// release lets the TLS conn go, cutting its callbacks into the record.
func (t *tlsWire) release() {
	if t.tls != nil {
		t.tls.Release()
	}
}

// dial sets the client up as a proto client and opens TCP, then TLS with
// proto's ALPN. t.tls exists from TCP connect on, so Close and Abort
// reach a handshake in progress.
func (t *tlsWire) dial(host *simnet.Host, addr simnet.Addr, port uint16, serverName string, proto Protocol, cfg DialConfig) {
	c := t.c
	c.init(host.Scheduler(), proto, cfg.Pools, cfg.Trace)
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
	t.tlsCfg = tlssim.ClientConfig{
		Version:         version,
		ServerName:      serverName,
		Tickets:         cfg.TLSTickets,
		EnableEarlyData: cfg.EnableEarlyData,
		Sched:           c.sched,
		HandshakeCPU:    cfg.HandshakeCPU,
		ALPN:            proto.ALPN(),
		Arena:           &cfg.Pools.Arena,
		RecvArena:       &cfg.Pools.Recv,
		Trace:           cfg.Trace,
		Pools:           &cfg.Pools.tls,
	}
	t.dialStart = c.sched.Now()
	t.dialing = true
	tc := tcpsim.Dial(host, addr, port, tcpCfg, t.onTCPFn)
	// Cover the SYN window: until the TLS layer takes over the close
	// callback (on connect), a connection that dies dialing — SYN
	// retry exhaustion, RST — would otherwise vanish without ever
	// resolving the dial.
	tc.SetCloseFunc(t.onTCPCloseFn)
	c.dog.init(c.sched, c.fireFn)
}

// onTCP starts TLS on the connected TCP conn.
func (t *tlsWire) onTCP(tc *tcpsim.Conn) {
	t.dialing, t.hsPending = false, true
	cfg := t.tlsCfg
	cfg.TraceConn = tc.TraceID()
	t.tls = tlssim.Client(tc, cfg, t.onHandshakeFn)
}

// onTCPClose reports a TCP conn that died dialing.
func (t *tlsWire) onTCPClose(err error) {
	t.dialing = false
	t.c.onClose(err)
	t.c.maybeRetire()
}

func (t *tlsWire) onHandshake(err error) {
	c := t.c
	t.hsPending = false
	switch {
	case err != nil:
		c.fail(err)
	case c.closed:
		// The client gave up (watchdog or abort) while the handshake
		// was still running; release the late connection.
		t.tls.Abort()
	default:
		// Handshake duration covers TCP + TLS, from the dial call; the
		// SSL portion is the TLS layer's own span (HAR "ssl").
		t.hsDur = c.sched.Now() - t.dialStart
		t.sslDur = t.tls.HandshakeDuration()
		t.traceID = t.tls.TraceID()
		t.resumed = t.tls.Resumed()
		t.tls.SetDataFunc(c.onDataFn)
		t.tls.SetCloseFunc(c.onCloseFn)
		c.establish()
	}
	c.maybeRetire()
}
