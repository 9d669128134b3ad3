package tlssim

import (
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/bytestream"
	"h3cdn/internal/simnet"
	"h3cdn/internal/trace"
)

// ClientConfig configures a client-side TLS connection.
type ClientConfig struct {
	// Version selects TLS12 or TLS13. Default TLS13.
	Version Version
	// ServerName is the SNI; it keys the ticket cache.
	ServerName string
	// Tickets, when non-nil, enables TLS 1.3 session resumption.
	Tickets *TicketStore
	// EnableEarlyData sends 0-RTT application data when a ticket is
	// available (TLS 1.3 only).
	EnableEarlyData bool
	// Sched enables CPU cost modeling; nil runs crypto at zero cost.
	Sched *simnet.Scheduler
	// HandshakeCPU is the client-side crypto compute time for a full
	// handshake (halved for resumption).
	HandshakeCPU time.Duration
	// ALPN is the application protocol to negotiate (e.g. "h2", "http/1.1").
	ALPN string
	// Trace, when non-nil, receives handshake events. TraceConn is the
	// carrying transport connection's trace id, so TLS events share the
	// TCP connection's identity in the trace.
	Trace     *trace.Tracer
	TraceConn uint32
	// Arena, when non-nil, supplies the per-universe buffer arena for
	// record construction. Nil gets a private one.
	Arena *bufpool.Arena
}

// ServerConfig configures a server-side TLS connection.
type ServerConfig struct {
	// Sessions is the server ticket registry; nil disables resumption.
	Sessions *ServerSessionState
	// Sched enables CPU cost modeling; nil runs crypto at zero cost.
	Sched *simnet.Scheduler
	// HandshakeCPU is the server-side crypto compute time for a full
	// handshake (halved for resumption).
	HandshakeCPU time.Duration
	// Trace / TraceConn mirror ClientConfig's tracing fields for the
	// server side of the handshake.
	Trace     *trace.Tracer
	TraceConn uint32
	// Arena, when non-nil, supplies the per-universe buffer arena for
	// record construction. Nil gets a private one.
	Arena *bufpool.Arena
}

// Conn is a TLS session over an underlying byte stream. It implements
// bytestream.Stream itself, delivering plaintext application data.
type Conn struct {
	transport bytestream.Stream
	isClient  bool
	ccfg      ClientConfig
	scfg      ServerConfig

	established bool
	closed      bool // local close/abort issued
	peerClosed  bool // transport reported end-of-stream
	resumed     bool
	earlyData   bool
	version     Version
	alpn        string
	serverName  string
	hsStart     time.Duration
	hsDone      time.Duration

	arena *bufpool.Arena

	recvAcc   []byte
	recvOff   int      // consumed prefix of recvAcc; compacted before each append
	pending   [][]byte // arena-owned app writes queued until the handshake allows them
	pendingIn [][]byte // plaintext received before a data callback exists

	dataFn      func([]byte)
	closeFn     func(error)
	onHandshake func(error)
}

var _ bytestream.Stream = (*Conn)(nil)

// Client starts a TLS handshake as the initiator over transport.
// onHandshake fires as soon as application data may be sent: after one
// round trip for TLS 1.3, two for TLS 1.2, and immediately for 0-RTT
// resumption.
func Client(transport bytestream.Stream, cfg ClientConfig, onHandshake func(error)) *Conn {
	if cfg.Version == 0 {
		cfg.Version = TLS13
	}
	if cfg.Arena == nil {
		cfg.Arena = &bufpool.Arena{}
	}
	c := &Conn{
		transport:   transport,
		isClient:    true,
		ccfg:        cfg,
		version:     cfg.Version,
		onHandshake: onHandshake,
		arena:       cfg.Arena,
	}
	if cfg.Sched != nil {
		c.hsStart = cfg.Sched.Now()
	}
	transport.SetDataFunc(c.onTransportData)
	transport.SetCloseFunc(c.onTransportClose)

	c.alpn = cfg.ALPN
	c.serverName = cfg.ServerName
	ch := clientHello{version: cfg.Version, serverName: cfg.ServerName, alpn: cfg.ALPN}
	if cfg.Version == TLS13 && cfg.Tickets != nil {
		if t, ok := cfg.Tickets.Get(cfg.ServerName); ok {
			ch.ticketID = t.ID
			c.resumed = true
			if cfg.EnableEarlyData {
				ch.earlyData = true
				c.earlyData = true
			}
		}
	}
	cfg.Trace.TLSClientHello(c.hsStart, cfg.TraceConn, int(cfg.Version), c.resumed, c.earlyData)
	transport.Write(encodeRecord(recClientHello, encodeClientHello(ch)))
	if c.earlyData {
		// 0-RTT: the application may transmit immediately. Completion
		// is deferred one scheduler tick (zero virtual time) so the
		// callback never fires before Client returns.
		if cfg.Sched != nil {
			cfg.Sched.After(0, func() { c.completeHandshake(nil) })
		} else {
			c.completeHandshake(nil)
		}
	}
	return c
}

// Server starts a TLS handshake as the responder over transport.
// onHandshake fires once the server may send application data (after its
// first flight); it may be nil.
func Server(transport bytestream.Stream, cfg ServerConfig, onHandshake func(error)) *Conn {
	if cfg.Arena == nil {
		cfg.Arena = &bufpool.Arena{}
	}
	c := &Conn{
		transport:   transport,
		scfg:        cfg,
		onHandshake: onHandshake,
		arena:       cfg.Arena,
	}
	if cfg.Sched != nil {
		c.hsStart = cfg.Sched.Now()
	}
	transport.SetDataFunc(c.onTransportData)
	transport.SetCloseFunc(c.onTransportClose)
	return c
}

// Established reports whether application data may flow.
func (c *Conn) Established() bool { return c.established }

// Resumed reports whether the session was resumed from a ticket.
func (c *Conn) Resumed() bool { return c.resumed }

// UsedEarlyData reports whether 0-RTT application data was sent.
func (c *Conn) UsedEarlyData() bool { return c.earlyData }

// Version returns the negotiated TLS version.
func (c *Conn) Version() Version { return c.version }

// ALPN returns the negotiated application protocol. On the server side it
// is available once the handshake callback fires.
func (c *Conn) ALPN() string { return c.alpn }

// ServerName returns the SNI. On the server side it is available once the
// handshake callback fires.
func (c *Conn) ServerName() string { return c.serverName }

// HandshakeDuration returns the time from connection start until
// application data could first be sent (zero without a scheduler).
func (c *Conn) HandshakeDuration() time.Duration { return c.hsDone - c.hsStart }

// tracer returns this side's tracer and connection trace id.
func (c *Conn) tracer() (*trace.Tracer, uint32) {
	if c.isClient {
		return c.ccfg.Trace, c.ccfg.TraceConn
	}
	return c.scfg.Trace, c.scfg.TraceConn
}

// TraceID returns the carrying connection's trace id (0 when untraced).
func (c *Conn) TraceID() uint32 {
	_, id := c.tracer()
	return id
}

func (c *Conn) now() time.Duration {
	if c.ccfg.Sched != nil {
		return c.ccfg.Sched.Now()
	}
	if c.scfg.Sched != nil {
		return c.scfg.Sched.Now()
	}
	return 0
}

// SetDataFunc registers the plaintext delivery callback. Plaintext that
// arrived earlier (e.g. 0-RTT early data processed before the application
// layer attached) is flushed immediately.
func (c *Conn) SetDataFunc(fn func([]byte)) {
	c.dataFn = fn
	if fn == nil {
		return
	}
	for len(c.pendingIn) > 0 {
		p := c.pendingIn[0]
		c.pendingIn = c.pendingIn[1:]
		fn(p)
	}
	c.pendingIn = nil
}

// SetCloseFunc registers the end-of-stream callback.
func (c *Conn) SetCloseFunc(fn func(error)) { c.closeFn = fn }

// UnsentBytes implements bytestream.Throttled by delegating to the
// transport (0 when the transport exposes no backpressure).
func (c *Conn) UnsentBytes() int {
	if t, ok := c.transport.(bytestream.Throttled); ok {
		return t.UnsentBytes()
	}
	return 0
}

// SetDrainFunc implements bytestream.Throttled by delegating to the
// transport; it is a no-op when the transport exposes no backpressure.
func (c *Conn) SetDrainFunc(threshold int, fn func()) {
	if t, ok := c.transport.(bytestream.Throttled); ok {
		t.SetDrainFunc(threshold, fn)
	}
}

// Write queues plaintext. Before the handshake permits transmission the
// data is buffered (or sent as 0-RTT early data when enabled).
func (c *Conn) Write(p []byte) {
	if c.closed {
		return
	}
	if !c.established {
		buf := c.arena.Get(len(p))
		copy(buf, p)
		c.pending = append(c.pending, buf)
		return
	}
	c.writeRecords(p)
}

func (c *Conn) writeRecords(p []byte) {
	for len(p) > 0 {
		n := len(p)
		if n > maxRecord {
			n = maxRecord
		}
		// Build the record in a pooled buffer: the transport copies on
		// Write, so the buffer can be recycled immediately. The trailing
		// tag bytes carry arbitrary contents — they stand in for an
		// AEAD tag and are stripped unread by the receiver.
		plen := n + recordTag
		rec := c.arena.Get(recordHeader + plen)
		rec[0] = byte(recAppData)
		rec[1] = byte(plen >> 16)
		rec[2] = byte(plen >> 8)
		rec[3] = byte(plen)
		rec[4] = 0
		copy(rec[recordHeader:], p[:n])
		c.transport.Write(rec)
		c.arena.Put(rec)
		p = p[n:]
	}
}

// Close flushes and closes the underlying transport cleanly.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.releasePending()
	c.transport.Close()
}

// Abort tears down the underlying transport immediately.
func (c *Conn) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.releasePending()
	c.transport.Abort()
}

func (c *Conn) completeHandshake(err error) {
	if c.established || c.closed {
		return
	}
	if err != nil {
		c.closed = true
		c.releasePending()
		if c.onHandshake != nil {
			c.onHandshake(err)
		}
		return
	}
	c.established = true
	if c.ccfg.Sched != nil {
		c.hsDone = c.ccfg.Sched.Now()
	} else if c.scfg.Sched != nil {
		c.hsDone = c.scfg.Sched.Now()
	}
	if tr, id := c.tracer(); tr != nil {
		tr.TLSHandshakeDone(c.hsDone, id, c.isClient, c.resumed, c.earlyData)
	}
	if c.onHandshake != nil {
		c.onHandshake(nil)
	}
	for _, p := range c.pending {
		c.writeRecords(p)
	}
	c.releasePending()
}

// releasePending returns queued pre-establishment writes to the arena.
// Idempotent: every path that abandons the queue (completion, close,
// abort, record failure) funnels through here so the arena's Get/Put
// balance holds even for failed handshakes.
func (c *Conn) releasePending() {
	for i, p := range c.pending {
		c.arena.Put(p)
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
}

func (c *Conn) onTransportClose(err error) {
	if c.peerClosed || c.closed {
		c.peerClosed = true
		return
	}
	c.peerClosed = true
	if !c.established {
		c.releasePending()
		if c.onHandshake != nil {
			hsErr := err
			if hsErr == nil {
				hsErr = ErrHandshakeAborted
			}
			c.onHandshake(hsErr)
		}
		return
	}
	if c.closeFn != nil {
		c.closeFn(err)
	}
}

func (c *Conn) onTransportData(p []byte) {
	// Compact the consumed prefix before appending so the accumulator
	// reuses one backing array instead of migrating forward with every
	// re-slice. Record payloads handed to handleRecord are only valid
	// for the duration of that call, so moving bytes here — between
	// transport deliveries — cannot invalidate a live payload.
	if c.recvOff > 0 {
		n := copy(c.recvAcc, c.recvAcc[c.recvOff:])
		c.recvAcc = c.recvAcc[:n]
		c.recvOff = 0
	}
	c.recvAcc = append(c.recvAcc, p...)
	for {
		acc := c.recvAcc[c.recvOff:]
		if len(acc) < recordHeader {
			return
		}
		plen := int(acc[1])<<16 | int(acc[2])<<8 | int(acc[3])
		if len(acc) < recordHeader+plen {
			return
		}
		rt := recordType(acc[0])
		payload := acc[recordHeader : recordHeader+plen]
		c.recvOff += recordHeader + plen
		c.handleRecord(rt, payload)
		if c.closed {
			return
		}
	}
}

func (c *Conn) handleRecord(rt recordType, payload []byte) {
	switch rt {
	case recAppData:
		if len(payload) < recordTag {
			c.failRecord()
			return
		}
		plain := payload[:len(payload)-recordTag]
		if len(plain) > 0 {
			if c.dataFn != nil {
				// plain aliases recvAcc, which is only appended to
				// between records — valid for the duration of the
				// callback, which copies what it keeps.
				c.dataFn(plain)
			} else {
				buf := make([]byte, len(plain))
				copy(buf, plain)
				c.pendingIn = append(c.pendingIn, buf)
			}
		}
	case recClientHello:
		if c.isClient {
			return
		}
		c.serverHandleClientHello(payload)
	case recServerHello13:
		if !c.isClient {
			return
		}
		sh, err := decodeServerHello13(payload)
		if err != nil {
			c.failRecord()
			return
		}
		if !sh.resumed {
			c.resumed = false
		}
		if sh.newTicketID != 0 && c.ccfg.Tickets != nil {
			var issued time.Duration
			if c.ccfg.Sched != nil {
				issued = c.ccfg.Sched.Now()
			}
			c.ccfg.Tickets.Put(Ticket{ID: sh.newTicketID, ServerName: c.ccfg.ServerName, IssuedAt: issued})
		}
		c.clientFinish13()
	case recServerHello12:
		if !c.isClient {
			return
		}
		// Second client flight: key exchange + Finished.
		cpuDelay(c.ccfg.Sched, c.ccfg.HandshakeCPU, func() {
			c.transport.Write(encodeRecord(recClientKeyExchange, make([]byte, sizeClientKeyExch)))
		})
	case recClientKeyExchange:
		if c.isClient {
			return
		}
		cpuDelay(c.scfg.Sched, c.scfg.HandshakeCPU, func() {
			c.transport.Write(encodeRecord(recServerFinished12, make([]byte, sizeServerFinished)))
			c.completeHandshake(nil)
		})
	case recServerFinished12:
		if !c.isClient {
			return
		}
		c.completeHandshake(nil)
	default:
		c.failRecord()
	}
}

func (c *Conn) clientFinish13() {
	cpu := c.ccfg.HandshakeCPU
	if c.resumed {
		cpu /= 2
	}
	cpuDelay(c.ccfg.Sched, cpu, func() {
		c.completeHandshake(nil)
	})
}

func (c *Conn) serverHandleClientHello(payload []byte) {
	ch, err := decodeClientHello(payload)
	if err != nil {
		c.failRecord()
		return
	}
	c.version = ch.version
	c.alpn = ch.alpn
	c.serverName = ch.serverName
	switch ch.version {
	case TLS13:
		resumed := c.scfg.Sessions != nil && c.scfg.Sessions.valid(ch.ticketID)
		c.resumed = resumed
		c.earlyData = resumed && ch.earlyData
		cpu := c.scfg.HandshakeCPU
		if resumed {
			cpu /= 2
		}
		cpuDelay(c.scfg.Sched, cpu, func() {
			sh := serverHello13{resumed: resumed}
			if c.scfg.Sessions != nil {
				sh.newTicketID = c.scfg.Sessions.issue()
			}
			c.scfg.Trace.TLSServerFlight(c.now(), c.scfg.TraceConn, int(TLS13), resumed)
			if sh.newTicketID != 0 {
				c.scfg.Trace.TLSTicketIssued(c.now(), c.scfg.TraceConn, sh.newTicketID)
			}
			c.transport.Write(encodeRecord(recServerHello13, encodeServerHello13(sh)))
			c.completeHandshake(nil)
		})
	case TLS12:
		cpuDelay(c.scfg.Sched, c.scfg.HandshakeCPU, func() {
			c.scfg.Trace.TLSServerFlight(c.now(), c.scfg.TraceConn, int(TLS12), false)
			c.transport.Write(encodeRecord(recServerHello12, make([]byte, sizeServerHello12)))
		})
	default:
		c.failRecord()
	}
}

func (c *Conn) failRecord() {
	c.closed = true
	c.releasePending()
	c.transport.Abort()
	if !c.established {
		if c.onHandshake != nil {
			c.onHandshake(ErrBadRecord)
		}
		return
	}
	if c.closeFn != nil {
		c.closeFn(ErrBadRecord)
	}
}
