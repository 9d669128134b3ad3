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
	// Sched runs the handshake: its CPU delays and timestamps. Required.
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
	// Arena is the buffer arena for record construction. Required.
	Arena *bufpool.Arena
	// RecvArena, when non-nil, supplies the recycler for split-record
	// carries. Nil gets a private one.
	RecvArena *bufpool.Arena
	// Pools, when non-nil, recycles the Conn struct (see Pools). Nil
	// allocates one the collector takes.
	Pools *Pools
}

// ServerConfig configures a server-side TLS connection.
type ServerConfig struct {
	// Sessions is the server ticket registry; nil disables resumption.
	Sessions *ServerSessionState
	// Sched runs the handshake: its CPU delays and timestamps. Required.
	Sched *simnet.Scheduler
	// HandshakeCPU is the server-side crypto compute time for a full
	// handshake (halved for resumption).
	HandshakeCPU time.Duration
	// Trace / TraceConn mirror ClientConfig's tracing fields for the
	// server side of the handshake.
	Trace     *trace.Tracer
	TraceConn uint32
	// Arena is the buffer arena for record construction. Required.
	Arena *bufpool.Arena
	// RecvArena, when non-nil, supplies the recycler for split-record
	// carries. Nil gets a private one.
	RecvArena *bufpool.Arena
	// Pools mirrors ClientConfig.Pools.
	Pools *Pools
}

// Pools recycles Conn structs under the bufpool.Recycler rule: a conn is
// retired once its owner has released it (Release), it calls its
// transport no more (it closed, or the transport tore down) and no
// handshake step waits on the scheduler. The zero value is ready to use.
type Pools struct {
	conns bufpool.Recycler[*Conn]
	names map[string]string // server names read from ClientHellos (serverName); cleared by Promote
}

// serverName returns the server name b spells, as the string an earlier
// handshake on these pools made of the same bytes: the servers of one
// universe answer a few names over and over, so each is copied out of a
// ClientHello once until the next Promote. Nil pools copy every time.
func (pl *Pools) serverName(b []byte) string {
	if pl == nil {
		return string(b)
	}
	if n, ok := pl.names[string(b)]; ok {
		return n
	}
	if pl.names == nil {
		pl.names = make(map[string]string)
	}
	n := string(b)
	pl.names[n] = n
	return n
}

// Promote resets and frees every retired conn whatever its stamp, and
// forgets the server names; call it once the schedulers that retired
// them will run no more events.
func (pl *Pools) Promote() {
	pl.conns.Promote((*Conn).reset)
	clear(pl.names)
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
	alpn        string
	serverName  string
	hsStart     time.Duration
	hsDone      time.Duration

	// transportGone: the transport reported a failure teardown, after
	// which its struct may be recycled, so nothing calls it again.
	transportGone bool

	arena *bufpool.Arena // wire records and queued writes
	recv  *bufpool.Arena // split-record carries

	carry      []byte // recv-owned copy of a record split across deliveries; nil between records
	recvDone   bool   // nothing more will be received: deliveries are dropped
	delivering bool   // inside onTransportData's record loop

	pending   []pendingWrite // app writes queued until the handshake allows them
	pendingIn [][]byte       // plaintext received before a data callback exists

	dataFn      func([]byte)
	closeFn     func(error)
	onHandshake func(error)

	// pools is where the conn retires to; nil for an unpooled conn and
	// once it has retired.
	pools    *Pools
	released bool // the owner makes no further call (Release)
	steps    int  // handshake steps waiting on the scheduler (cpuDelay)

	// onDataT/onCloseT are the transport's callbacks into the conn,
	// bound once when the struct is allocated and kept across reuse.
	onDataT  func([]byte)
	onCloseT func(error)
}

var _ bytestream.Stream = (*Conn)(nil)

// pendingWrite is one WriteOpaque queued before the handshake: an arena
// copy of its head and its opaque count, replayed as the same write.
type pendingWrite struct {
	head []byte
	n    int
}

// newConn takes a reset struct from pools, when it can recycle one under
// sched, or allocates one; either way its transport callbacks are bound.
func newConn(pools *Pools, sched *simnet.Scheduler) *Conn {
	if pools == nil {
		return allocConn(nil)
	}
	if c, ok := pools.conns.Get(sched, (*Conn).reset); ok {
		c.pools = pools
		return c
	}
	return allocConn(pools)
}

func allocConn(pools *Pools) *Conn {
	c := &Conn{pools: pools}
	c.onDataT, c.onCloseT = c.onTransportData, c.onTransportClose
	return c
}

// reset clears a retired conn for reuse, keeping the bound transport
// callbacks and the queued-write array (emptied by releasePending).
func (c *Conn) reset() {
	onDataT, onCloseT, pending := c.onDataT, c.onCloseT, c.pending[:0]
	*c = Conn{onDataT: onDataT, onCloseT: onCloseT, pending: pending}
}

// Client starts a TLS handshake as the initiator over transport.
// onHandshake fires as soon as application data may be sent: after one
// round trip for TLS 1.3, two for TLS 1.2, and immediately for 0-RTT
// resumption.
func Client(transport bytestream.Stream, cfg ClientConfig, onHandshake func(error)) *Conn {
	if cfg.Version == 0 {
		cfg.Version = TLS13
	}
	if cfg.RecvArena == nil {
		cfg.RecvArena = &bufpool.Arena{}
	}
	c := newConn(cfg.Pools, cfg.Sched)
	c.transport = transport
	c.isClient = true
	c.ccfg = cfg
	c.onHandshake = onHandshake
	c.arena = cfg.Arena
	c.recv = cfg.RecvArena
	c.hsStart = cfg.Sched.Now()
	transport.SetDataFunc(c.onDataT)
	transport.SetCloseFunc(c.onCloseT)

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
	fields := c.arena.Get(ch.fieldsLen())
	ch.put(fields)
	c.writeRecords(recClientHello, fields, ch.size()-len(fields))
	c.arena.Put(fields)
	if c.earlyData {
		// 0-RTT: the application may transmit immediately. Completion
		// is deferred one scheduler tick (zero virtual time) so the
		// callback never fires before Client returns.
		c.steps++
		cfg.Sched.AfterArg(0, completeEvent, c)
	}
	return c
}

// Server starts a TLS handshake as the responder over transport.
// onHandshake fires once the server may send application data (after its
// first flight); it may be nil.
func Server(transport bytestream.Stream, cfg ServerConfig, onHandshake func(error)) *Conn {
	if cfg.RecvArena == nil {
		cfg.RecvArena = &bufpool.Arena{}
	}
	c := newConn(cfg.Pools, cfg.Sched)
	c.transport = transport
	c.scfg = cfg
	c.onHandshake = onHandshake
	c.arena = cfg.Arena
	c.recv = cfg.RecvArena
	c.hsStart = cfg.Sched.Now()
	transport.SetDataFunc(c.onDataT)
	transport.SetCloseFunc(c.onCloseT)
	return c
}

// sched is this side's scheduler.
func (c *Conn) sched() *simnet.Scheduler {
	if c.isClient {
		return c.ccfg.Sched
	}
	return c.scfg.Sched
}

// Release tells the conn that its owner makes no further call and takes
// no further callback: the data, close and handshake callbacks are cut.
// A pooled conn is recycled from the next event on once it also calls
// its transport no more and no handshake step is waiting (see Pools); a
// conn still open then is left to the collector. Idempotent.
func (c *Conn) Release() {
	c.dataFn, c.closeFn, c.onHandshake = nil, nil, nil
	c.pendingIn = nil
	c.released = true
	c.maybeRetire()
}

// maybeRetire retires a pooled conn that nothing reaches any more: its
// owner released it, no handshake step is scheduled, and its transport
// no longer calls it — the conn closed (Close cut the transport's
// callbacks, Abort tore it down) or the transport tore down.
func (c *Conn) maybeRetire() {
	if c.pools == nil || !c.released || c.steps > 0 || !(c.closed || c.transportGone) {
		return
	}
	pools := c.pools
	c.pools = nil
	pools.conns.Retire(c, c.sched())
}

// Resumed reports whether the session was resumed from a ticket.
func (c *Conn) Resumed() bool { return c.resumed }

// ALPN returns the negotiated application protocol. On the server side it
// is available once the handshake callback fires.
func (c *Conn) ALPN() string { return c.alpn }

// ServerName returns the SNI. On the server side it is available once the
// handshake callback fires.
func (c *Conn) ServerName() string { return c.serverName }

// HandshakeDuration returns the time from connection start until
// application data could first be sent.
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

func (c *Conn) now() time.Duration { return c.sched().Now() }

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

// transportLive reports whether the transport may still be called:
// this conn has not closed or aborted it, and it has not torn down.
func (c *Conn) transportLive() bool { return !c.closed && !c.transportGone }

// UnsentBytes implements bytestream.Throttled by delegating to the
// transport (0 when the transport exposes no backpressure or is no
// longer live).
func (c *Conn) UnsentBytes() int {
	if t, ok := c.transport.(bytestream.Throttled); ok && c.transportLive() {
		return t.UnsentBytes()
	}
	return 0
}

// SetDrainFunc implements bytestream.Throttled by delegating to the
// transport; it is a no-op when the transport exposes no backpressure
// or is no longer live.
func (c *Conn) SetDrainFunc(threshold int, fn func()) {
	if t, ok := c.transport.(bytestream.Throttled); ok && c.transportLive() {
		t.SetDrainFunc(threshold, fn)
	}
}

// Write queues plaintext. Before the handshake permits transmission the
// data is buffered (or sent as 0-RTT early data when enabled).
func (c *Conn) Write(p []byte) { c.WriteOpaque(p, 0) }

// WriteOpaque queues head followed by n opaque bytes of plaintext.
// Before the handshake permits transmission a copy of head is queued
// with the count, and the handshake replays them as the same write.
func (c *Conn) WriteOpaque(head []byte, n int) {
	if !c.transportLive() {
		return
	}
	if !c.established {
		buf := c.arena.Get(len(head))
		copy(buf, head)
		c.pending = append(c.pending, pendingWrite{head: buf, n: n})
		return
	}
	c.writeRecords(recAppData, head, n)
}

// writeRecords is the one record writer. It frames head followed by n
// opaque bytes as records of type t: app data splits at maxRecord and
// each record ends in recordTag opaque bytes, standing in for an AEAD
// tag the receiver strips unread; a handshake message is one record.
// Each record reaches the transport as one WriteOpaque of its header and
// the head bytes that fall in it, then the rest of it as opaque bytes.
// A flight whose CPU delay outlives the transport writes nothing.
func (c *Conn) writeRecords(t recordType, head []byte, n int) {
	if !c.transportLive() {
		return
	}
	for left := len(head) + n; left > 0; {
		plen, tag := left, 0
		if t == recAppData {
			plen, tag = min(left, maxRecord), recordTag
		}
		h := min(len(head), plen)
		rec := c.arena.Get(recordHeader + h)
		rec[0] = byte(t)
		rec[1] = byte((plen + tag) >> 16)
		rec[2] = byte((plen + tag) >> 8)
		rec[3] = byte(plen + tag)
		rec[4] = 0 // reserved (legacy version byte)
		copy(rec[recordHeader:], head[:h])
		c.transport.WriteOpaque(rec, plen-h+tag)
		c.arena.Put(rec)
		head = head[h:]
		left -= plen
	}
}

// Close flushes and closes the underlying transport cleanly. The
// transport's callbacks into the conn are cut: everything it could still
// report — the FIN exchange, a late reset — a closed conn ignores.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.release()
	if !c.transportGone {
		c.transport.Close()
		c.transport.SetDataFunc(nil)
		c.transport.SetCloseFunc(nil)
		if t, ok := c.transport.(bytestream.Throttled); ok {
			t.SetDrainFunc(0, nil)
		}
	}
	c.maybeRetire()
}

// Abort tears down the underlying transport immediately.
func (c *Conn) Abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.release()
	if !c.transportGone {
		c.transport.Abort()
	}
	c.maybeRetire()
}

func (c *Conn) completeHandshake() {
	if c.established || c.closed {
		return
	}
	c.established = true
	c.hsDone = c.now()
	if tr, id := c.tracer(); tr != nil {
		tr.TLSHandshakeDone(c.hsDone, id, c.isClient, c.resumed, c.earlyData)
	}
	// Writes queued behind the handshake go first, so that they precede
	// whatever the callback writes and a Close from it cannot drop them.
	for _, w := range c.pending {
		c.writeRecords(recAppData, w.head, w.n)
	}
	c.releasePending()
	if c.onHandshake != nil {
		c.onHandshake(nil)
	}
}

// releasePending returns queued pre-establishment writes to the arena.
// Idempotent: handshake completion and, through release, every teardown
// path end here, so the arena's Get/Put balance holds even for failed
// handshakes.
func (c *Conn) releasePending() {
	for i, w := range c.pending {
		c.arena.Put(w.head)
		c.pending[i] = pendingWrite{}
	}
	c.pending = c.pending[:0]
}

// release gives back what a connection holds once it is done — locally
// closed or aborted, failed, or closed by the transport: the queued
// writes, and a carry. Later deliveries are dropped (the consumers of a
// closed connection ignored them). A teardown can start inside a
// delivery (a completion callback closing the connection runs under
// handleRecord), where the record loop may still be reading the carry;
// then only the flag is set and onTransportData releases when the loop
// unwinds. Idempotent.
//
// The carry rule: a connection holds a receive buffer only while a
// record is split across deliveries. Whole records are parsed in place
// from the delivery; the bytes of a split one are copied into a carry
// taken from recv at carrySize — one class, so any carry can serve any
// split record; an opaque run only extends it (deliverRecords) — and
// the carry goes back as soon as that record has been handled. Between
// records, and after release, a connection holds nothing.
func (c *Conn) release() {
	c.releasePending()
	c.recvDone = true
	if c.delivering || c.carry == nil {
		return
	}
	c.recv.Put(c.carry)
	c.carry = nil
}

func (c *Conn) onTransportClose(err error) {
	if err != nil {
		c.transportGone = true
		defer c.maybeRetire()
	}
	if c.peerClosed || c.closed {
		c.peerClosed = true
		return
	}
	c.peerClosed = true
	c.release()
	if !c.established {
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
	if c.recvDone {
		return
	}
	c.delivering = true
	c.deliverRecords(p)
	c.delivering = false
	if c.recvDone {
		c.release()
	}
}

// deliverRecords hands every record that p completes to handleRecord,
// stopping at a local close: first a carried record topped up from p,
// then each whole record in p, in place. A record p leaves split goes
// into a carry (see release).
//
// An opaque run (bytestream.IsOpaque) tops a carry up without a copy:
// once the header is in, the carry only grows its length over bytes it
// already holds, whose stale contents are as valid for opaque positions
// as the run's. A run never holds a header (a writer supplies every
// header), so it never starts a record or parses in place.
func (c *Conn) deliverRecords(p []byte) {
	if c.carry != nil {
		// Top the carried record up: its header first, then the rest.
		for {
			n := recordSize(c.carry)
			if n < 0 {
				c.failRecord()
				return
			}
			want := max(n, recordHeader)
			k := min(want-len(c.carry), len(p))
			if n > 0 && bytestream.IsOpaque(p) {
				c.carry = c.carry[:len(c.carry)+k] // want <= carrySize <= cap
			} else {
				c.carry = append(c.carry, p[:k]...)
			}
			p = p[k:]
			if len(c.carry) < want {
				return
			}
			if n > 0 {
				break
			}
		}
		rec := c.carry
		c.handleRecord(recordType(rec[0]), rec[recordHeader:])
		c.recv.Put(rec)
		c.carry = nil
		if c.closed {
			return
		}
	}
	for {
		n := recordSize(p)
		if n < 0 {
			c.failRecord()
			return
		}
		if n == 0 || len(p) < n {
			if len(p) > 0 {
				c.carry = append(c.recv.Get(carrySize)[:0], p...)
			}
			return
		}
		c.handleRecord(recordType(p[0]), p[recordHeader:n])
		p = p[n:]
		if c.closed {
			return
		}
	}
}

// recordSize reads the record header at the front of b: the length of
// the whole record, 0 when b is shorter than a header, or -1 when it
// announces more than a capped record. No sender builds one, so it is
// refused before anything is buffered toward the 16 MB a corrupt length
// could announce.
func recordSize(b []byte) int {
	if len(b) < recordHeader {
		return 0
	}
	plen := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if plen > maxRecord+recordTag {
		return -1
	}
	return recordHeader + plen
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
				// plain aliases the delivery or the carry — valid for
				// the duration of the callback, which copies what it
				// keeps.
				c.dataFn(plain)
			} else if !c.released {
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
			c.ccfg.Tickets.Put(Ticket{ID: sh.newTicketID, ServerName: c.ccfg.ServerName})
		}
		c.clientFinish13()
	case recServerHello12:
		if !c.isClient {
			return
		}
		// Second client flight: key exchange + Finished.
		cpuDelay(c, c.ccfg.HandshakeCPU, keyExchangeEvent)
	case recClientKeyExchange:
		if c.isClient {
			return
		}
		cpuDelay(c, c.scfg.HandshakeCPU, serverFinished12Event)
	case recServerFinished12:
		if !c.isClient {
			return
		}
		c.completeHandshake()
	default:
		c.failRecord()
	}
}

func (c *Conn) clientFinish13() {
	cpu := c.ccfg.HandshakeCPU
	if c.resumed {
		cpu /= 2
	}
	cpuDelay(c, cpu, completeEvent)
}

func (c *Conn) serverHandleClientHello(payload []byte) {
	ch, err := decodeClientHello(payload, c.scfg.Pools)
	if err != nil {
		c.failRecord()
		return
	}
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
		cpuDelay(c, cpu, serverHello13Event)
	case TLS12:
		cpuDelay(c, c.scfg.HandshakeCPU, serverHello12Event)
	default:
		c.failRecord()
	}
}

func (c *Conn) failRecord() {
	c.closed = true
	c.release()
	if !c.transportGone {
		c.transport.Abort()
	}
	defer c.maybeRetire()
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
