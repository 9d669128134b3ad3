package quicsim

import (
	"slices"
	"sort"
	"time"

	"h3cdn/internal/cc"
	"h3cdn/internal/simnet"
)

// TraceID returns the connection's trace id (0 when untraced).
func (c *Conn) TraceID() uint32 { return c.traceID }

type connState uint8

const (
	stateHandshaking connState = iota + 1
	stateEstablished
	stateClosed
)

// sentPacket records one in-flight ack-eliciting packet.
type sentPacket struct {
	pn     uint64
	frames []frame
	size   int
	sentAt time.Duration
}

// sentList holds a connection's in-flight ack-eliciting packets ordered
// by pn (packet numbers are assigned monotonically and pushed in send
// order). The order makes ACK processing and packet-threshold loss
// detection ordered passes — no map iteration, no sort — and keeps float
// arithmetic reproducible by construction. s[head:] is live: the usual
// ACK and every loss declaration retire a prefix, which advances head
// instead of moving the packets still in flight.
type sentList struct {
	s    []*sentPacket
	head int
}

func (l *sentList) live() []*sentPacket { return l.s[l.head:] }

func (l *sentList) len() int { return len(l.s) - l.head }

// push appends sp. A full array at least half retired slides its live
// records to the front instead of growing, which keeps the copying at
// one move per push.
func (l *sentList) push(sp *sentPacket) {
	if len(l.s) == cap(l.s) && l.head >= l.len() {
		n := copy(l.s, l.s[l.head:])
		clear(l.s[n:])
		l.s, l.head = l.s[:n], 0
	}
	l.s = append(l.s, sp)
}

// drop removes the first n live records.
func (l *sentList) drop(n int) {
	clear(l.s[l.head : l.head+n])
	l.head += n
	if l.head == len(l.s) {
		l.s, l.head = l.s[:0], 0
	}
}

// ClientConfig configures a client connection.
type ClientConfig struct {
	Config
	// ServerName keys the token cache (SNI equivalent).
	ServerName string
	// Tokens, when non-nil, enables session resumption.
	Tokens *TokenStore
	// EnableZeroRTT sends 0-RTT application data when a token exists.
	EnableZeroRTT bool
	// HandshakeCPU models client crypto compute time.
	HandshakeCPU time.Duration
}

// ServerConfig configures a server endpoint.
type ServerConfig struct {
	Config
	// Sessions is the token registry; nil disables resumption.
	Sessions *ServerSessions
	// HandshakeCPU models server crypto compute time for a full
	// handshake (halved on resumption).
	HandshakeCPU time.Duration
}

// Conn is one endpoint of a simulated QUIC connection.
type Conn struct {
	host  *simnet.Host
	sched *simnet.Scheduler
	cfg   Config

	isClient   bool
	remote     simnet.Addr
	route      *simnet.Route // to remote, resolved once per connection
	localPort  uint16
	remotePort uint16
	endpoint   *Endpoint // server side, for conn-table cleanup
	state      connState
	chNonce    uint64 // server side: incarnation nonce from the ClientHello

	ccfg        ClientConfig
	scfg        ServerConfig
	resumed     bool
	zeroRTT     bool
	chSeen      bool
	shSeen      bool
	issuedToken uint64 // server side: token granted in our ServerHello
	cid         uint64 // connection ID (assigned by the server)
	hsStart     time.Duration
	hsDone      time.Duration
	serverName  string

	// streams never loses an entry, so its size is also the number of
	// streams opened so far and Stream.order indexes that opening order.
	// sendable lists the streams with data or a bare FIN to send, sorted
	// by order; the round robin resumes at order rrIndex.
	streams      map[uint64]*Stream
	sendable     []*Stream
	rrIndex      int
	nextStreamID uint64
	streamFn     func(*Stream)

	nextPN        uint64
	sent          sentList
	bytesInFlight int
	recoveryStart uint64
	sendQ         []frame // control + retransmitted frames, FIFO

	// prof is Config.profile(), which win and rtt read.
	prof       cc.Profile
	win        cc.Window
	rtt        cc.RTT
	ptoTimer   *simnet.Timer
	ptoCount   int
	probeStart time.Duration // first PTO fire of the current episode

	recvd     rangeSet
	ackQueued bool

	// pools (Config.Pools) recycles the send path's per-packet records.
	// Recycling happens only when a record is provably dead: a sentPacket
	// retires on ack or loss-declaration with no other holder, while
	// frames arrays recycle on ack only — an acked packet was delivered
	// and fully processed, whereas a loss-declared one may be a
	// reordering false positive still in flight, its wire copy aliasing
	// the array.
	pools *Pools

	traceID uint32 // 0 when untraced

	onEstablished func(*Conn)
	closeFn       func(error)

	// The struct is pooled (Pools.conns) and retires once its owner has
	// released it, it has torn down, no handshake step or close probe
	// waits on the scheduler (steps) and its application holds none of
	// its streams (held).
	released bool
	retired  bool
	steps    int
	held     int
	// probeGap and probeN pace the close probes after a timeout abort.
	probeGap time.Duration
	probeN   int

	// pktFn and onPTOFn are bound once when the struct is allocated and
	// kept across reuse, as are the streams map and the sent, sendable
	// and received-range arrays (emptied at teardown).
	pktFn   func(simnet.Packet)
	onPTOFn func()
}

// Dial opens a client connection. onEstablished fires as soon as stream
// data may be sent: one RTT for a full handshake, immediately (zero
// virtual time) for 0-RTT resumption. Transport failures surface through
// SetCloseFunc.
func Dial(host *simnet.Host, dst simnet.Addr, dstPort uint16, cfg ClientConfig, onEstablished func(*Conn)) *Conn {
	c := newConn(host, dst, cfg.Config)
	c.isClient = true
	c.ccfg = cfg
	c.remotePort = dstPort
	c.serverName = cfg.ServerName
	c.onEstablished = onEstablished
	c.nextStreamID = 0 // client-initiated bidirectional: 0, 4, 8, ...
	c.localPort = host.BindEphemeral(c.pktFn)

	c.hsStart = c.sched.Now()
	ch := &clientHelloFrame{serverName: cfg.ServerName, nonce: uint64(c.hsStart)}
	if cfg.Tokens != nil {
		if t, ok := cfg.Tokens.Get(cfg.ServerName); ok {
			ch.token = t.ID
			c.resumed = true
			if cfg.EnableZeroRTT {
				ch.zeroRTT = true
				c.zeroRTT = true
			}
		}
	}
	c.cfg.Trace.QUICHandshakeStart(c.hsStart, c.traceID, c.resumed, c.zeroRTT)
	c.sendQ = append(c.sendQ, ch)
	c.trySend()
	c.armPTO()

	if c.zeroRTT {
		// 0-RTT: the application may open streams immediately; defer
		// one tick so the callback never runs before Dial returns.
		c.after(0, zeroRTTEvent)
	}
	return c
}

// zeroRTTReady establishes a 0-RTT client one tick after Dial.
func (c *Conn) zeroRTTReady() {
	if c.state != stateClosed {
		c.becomeEstablished()
	}
}

func newConn(host *simnet.Host, remote simnet.Addr, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c, ok := cfg.Pools.conns.Get(host.Scheduler(), (*Conn).reset)
	if !ok {
		c = allocConn()
	}
	c.host = host
	c.remote = remote
	c.route = host.Route(remote)
	c.sched = host.Scheduler()
	c.cfg = cfg
	c.state = stateHandshaking
	c.pools = cfg.Pools
	c.prof = cfg.profile()
	c.win = cc.NewWindow(&c.prof)
	c.rtt = cc.NewRTT(&c.prof)
	c.ptoTimer = c.sched.NewTimer(c.onPTOFn)
	c.traceID = cfg.Trace.ConnID()
	return c
}

// allocConn allocates a conn with its callbacks bound.
func allocConn() *Conn {
	c := &Conn{streams: make(map[uint64]*Stream)}
	c.pktFn, c.onPTOFn = c.onPacket, c.onPTO
	return c
}

// reset clears a retired conn for reuse, keeping the bound callbacks and
// the arrays and map it grew.
func (c *Conn) reset() {
	clear(c.streams)
	*c = Conn{
		streams:  c.streams,
		sendable: c.sendable[:0],
		sent:     sentList{s: c.sent.s[:0]},
		recvd:    rangeSet{ranges: c.recvd.ranges[:0]},
		pktFn:    c.pktFn,
		onPTOFn:  c.onPTOFn,
	}
}

// onPacket is a client conn's port handler.
func (c *Conn) onPacket(pkt simnet.Packet) {
	if p, ok := pkt.Payload.(*packet); ok {
		c.handlePacket(p)
	}
}

// Release tells the conn that its owner makes no further call and takes
// no further callback: the stream, close and establishment callbacks are
// cut. It is recycled from the next event on once it has also torn down,
// no handshake step or close probe is scheduled and its application
// holds none of its streams.
func (c *Conn) Release() {
	c.streamFn, c.closeFn, c.onEstablished = nil, nil, nil
	c.released = true
	c.maybeRetire()
}

func (c *Conn) maybeRetire() {
	if !c.released || c.retired || c.state != stateClosed || c.steps > 0 || c.held > 0 {
		return
	}
	c.retired = true
	c.pools.conns.Retire(c, c.sched)
}

// after schedules event for c after d; until it runs, c is not recycled.
func (c *Conn) after(d time.Duration, event func(any)) {
	c.steps++
	c.sched.AfterArg(d, event, c)
}

// stepEvent runs run for the conn an after event was scheduled for.
func stepEvent(x any, run func(*Conn)) {
	c := x.(*Conn)
	c.steps--
	run(c)
	c.maybeRetire()
}

func zeroRTTEvent(x any)     { stepEvent(x, (*Conn).zeroRTTReady) }
func serverHelloEvent(x any) { stepEvent(x, (*Conn).sendServerHello) }
func finishEvent(x any)      { stepEvent(x, (*Conn).finishHandshake) }
func closeProbeEvent(x any)  { stepEvent(x, (*Conn).sendCloseProbe) }

// ServerName returns the SNI (known to servers after the ClientHello).
func (c *Conn) ServerName() string { return c.serverName }

// Resumed reports whether the connection resumed from a session token.
func (c *Conn) Resumed() bool { return c.resumed }

// UsedZeroRTT reports whether 0-RTT application data was enabled.
func (c *Conn) UsedZeroRTT() bool { return c.zeroRTT }

// HandshakeDuration returns the time from Dial until stream data could
// first be sent (0 for 0-RTT connections).
func (c *Conn) HandshakeDuration() time.Duration { return c.hsDone - c.hsStart }

// SetStreamFunc registers the callback for peer-initiated streams.
func (c *Conn) SetStreamFunc(fn func(*Stream)) { c.streamFn = fn }

// SetCloseFunc registers the connection termination callback. err is nil
// for a clean peer close.
func (c *Conn) SetCloseFunc(fn func(error)) { c.closeFn = fn }

// OpenStream creates a new outgoing stream.
func (c *Conn) OpenStream() *Stream {
	s := c.pools.newStream(c, c.nextStreamID)
	c.nextStreamID += 4
	s.order = len(c.streams)
	c.streams[s.id] = s
	return s
}

// Close sends CONNECTION_CLOSE (clean) and releases all state.
func (c *Conn) Close() { c.shutdown(nil) }

// Abort sends CONNECTION_CLOSE (error) and releases all state without
// invoking local callbacks.
func (c *Conn) Abort() { c.shutdown(ErrAborted) }

func (c *Conn) shutdown(err error) {
	if c.state == stateClosed {
		return
	}
	// Best-effort close notification, bypassing congestion control.
	p := newPacket(c.pools)
	p.pn = c.nextPN
	p.close = closeClean
	if err != nil {
		p.close = closeAborted
	}
	c.transmit(p)
	c.nextPN++
	c.teardown()
}

// closeProbeLimit bounds CONNECTION_CLOSE re-sends after a PTO abort.
const closeProbeLimit = 12

// startCloseProbes re-sends CONNECTION_CLOSE with exponential spacing
// after an established connection aborts on probe-timeout exhaustion.
// The peer may be mid-receive with nothing in flight, so a single close
// lost to the same burst or outage that killed the connection would
// strand it forever. Real QUIC bounds this with the transport idle
// timeout; the simulator arms no timers on healthy paths, so the abort
// itself carries the persistence.
func (c *Conn) startCloseProbes() {
	c.probeGap, c.probeN = c.prof.FirstTimeout, 0
	c.sendCloseProbe()
}

func (c *Conn) sendCloseProbe() {
	p := newPacket(c.pools)
	p.pn = c.nextPN
	p.close = closeTimeout
	c.nextPN++
	c.transmit(p)
	c.probeN++
	if c.probeN >= closeProbeLimit {
		return
	}
	c.after(c.probeGap, closeProbeEvent)
	c.probeGap = min(2*c.probeGap, c.prof.TimeoutCeiling)
}

func (c *Conn) teardown() {
	c.state = stateClosed
	c.ptoTimer.Release()
	c.ptoTimer = nil
	if c.issuedToken != 0 && c.scfg.Sessions != nil {
		// Cache the path's cwnd for bandwidth resumption.
		c.scfg.Sessions.storeCwnd(c.issuedToken, c.win.Cwnd)
	}
	if c.isClient {
		c.host.Unbind(c.localPort)
	}
	if c.endpoint != nil {
		c.endpoint.remove(c.remote, c.remotePort)
	}
	// Packets own their payloads, so nothing on the wire reads the
	// streams' bytes and they go back at once, in flight or not; no
	// packet reads a stream struct either (receivers use packet.data).
	// Holds still counted by c.sent / c.sendQ are dropped with the
	// records below: those streamFrames leak to the collector rather
	// than the pool, which is the safe direction.
	for _, s := range c.streams {
		s.freeBytes()
		if !s.held {
			c.pools.streams.Retire(s, c.sched)
		}
	}
	clear(c.sent.s)
	c.sent = sentList{s: c.sent.s[:0]}
	c.sendQ = nil
	clear(c.sendable)
	c.sendable = c.sendable[:0]
	c.maybeRetire()
}

func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.teardown()
	if c.closeFn != nil {
		c.closeFn(err)
	}
}

func (c *Conn) becomeEstablished() {
	if c.state != stateHandshaking {
		return
	}
	c.state = stateEstablished
	c.hsDone = c.sched.Now()
	if c.zeroRTT {
		c.hsDone = c.hsStart
	}
	c.cfg.Trace.QUICHandshakeDone(c.hsDone, c.traceID, c.isClient, c.resumed, c.zeroRTT)
	if c.onEstablished != nil {
		c.onEstablished(c)
	}
	c.trySend()
}

// --- sending ---

func (c *Conn) transmit(p *packet) {
	c.fill(p)
	// Both directions stamp the connection ID (0 until the handshake
	// assigns one): both peers use it to reject stale traffic from a
	// previous incarnation of a recycled ephemeral port.
	p.dcid = c.cid
	size := p.wireSize()
	c.cfg.Trace.QUICPacketSent(c.sched.Now(), c.traceID, int64(p.pn), size)
	c.route.Send(c.localPort, c.remotePort, size, p)
}

// fill gives every STREAM frame p carries its payload, built from the
// sending stream's extents (Extents.Payload: a buffer of its own, or an
// opaque run when the frame holds no supplied byte), and records the
// frame as the receiver will read it.
func (c *Conn) fill(p *packet) {
	for _, f := range p.frames {
		if sf, ok := f.(*streamFrame); ok {
			data := sf.s.supplied.Payload(&c.pools.payloads, sf.off, sf.n)
			p.data = append(p.data, streamData{id: sf.s.id, off: sf.off, data: data, fin: sf.fin})
		}
	}
}

// canSendStreamData reports whether stream frames may be emitted now:
// after establishment, or during 0-RTT.
func (c *Conn) canSendStreamData() bool {
	return c.state == stateEstablished || (c.isClient && c.zeroRTT && c.state == stateHandshaking)
}

// trySend drains control frames and stream data into packets, respecting
// the congestion window. ACK-only packets bypass the window.
func (c *Conn) trySend() {
	if c.state == stateClosed {
		return
	}
	for {
		if float64(c.bytesInFlight) >= c.win.Cwnd {
			break
		}
		p := c.buildPacket()
		if p == nil {
			break
		}
		c.sendPacket(p)
	}
	// Flush a pending ACK even when nothing else fit.
	if c.ackQueued {
		p := newPacket(c.pools)
		p.pn = c.nextPN
		c.takeAck(p)
		c.transmit(p)
		c.nextPN++
	}
}

// maxAckRanges bounds the ranges one ACK reports, most recent first.
const maxAckRanges = 32

// takeAck puts the pending ACK's ranges into p.
func (c *Conn) takeAck(p *packet) {
	c.ackQueued = false
	p.ack = c.recvd.snapshot(p.ack[:0], maxAckRanges)
}

// buildPacket assembles the next packet: a pending ACK rides along, then
// queued control/retransmit frames, then fresh stream data round-robin.
// Returns nil when there is nothing ack-eliciting to send.
func (c *Conn) buildPacket() *packet {
	frames, _ := c.pools.frames.Get()
	budget := maxPacketPayload
	eliciting := false

	if c.ackQueued {
		budget -= ackSize(min(len(c.recvd.ranges), maxAckRanges))
	}

	for len(c.sendQ) > 0 {
		f := c.sendQ[0]
		if f.wireSize() > budget && eliciting {
			break
		}
		c.sendQ = c.sendQ[1:]
		frames = append(frames, f)
		budget -= f.wireSize()
		eliciting = true
		if budget <= 0 {
			break
		}
	}

	if budget > streamFrameHeader && c.canSendStreamData() {
		for budget > streamFrameHeader {
			sf := c.pullStreamFrame(budget - streamFrameHeader)
			if sf == nil {
				break
			}
			frames = append(frames, sf)
			budget -= sf.wireSize()
			eliciting = true
		}
	}

	if !eliciting {
		// Nothing to send (the trySend flush path sends a pending ACK
		// alone): recycle the frames array.
		if cap(frames) > 0 {
			c.pools.frames.Put(frames[:0])
		}
		return nil
	}
	p := newPacket(c.pools)
	p.pn = c.nextPN
	p.frames = frames
	if c.ackQueued {
		c.takeAck(p)
	}
	c.nextPN++
	return p
}

// queue adds s to the sendable list, in order, if it has anything to
// send and is not on it yet. Streams open in increasing order, so the
// tail is checked before the search.
func (c *Conn) queue(s *Stream) {
	if s.queued || !s.hasSendable() {
		return
	}
	s.queued = true
	i := len(c.sendable)
	if i > 0 && c.sendable[i-1].order > s.order {
		i = sort.Search(i, func(j int) bool { return c.sendable[j].order > s.order })
	}
	c.sendable = slices.Insert(c.sendable, i, s)
}

// pullStreamFrame extracts up to maxData bytes from the next stream in
// round-robin order with pending data (or a bare FIN): the first sendable
// stream at or after rrIndex in opening order, wrapping around — the
// stream a scan of every stream from rrIndex would stop at.
func (c *Conn) pullStreamFrame(maxData int) *streamFrame {
	if len(c.sendable) == 0 {
		return nil
	}
	k := sort.Search(len(c.sendable), func(j int) bool { return c.sendable[j].order >= c.rrIndex })
	if k == len(c.sendable) {
		k = 0
	}
	s := c.sendable[k]
	c.rrIndex = (s.order + 1) % len(c.streams)
	take := min(s.sendEnd-s.sendOff, uint64(maxData))
	sf := c.pools.newStreamFrame(s, s.sendOff, int(take))
	s.sendOff += take
	if s.finQueued && s.sendOff == s.sendEnd {
		sf.fin = true
		s.finSent = true
	}
	if !s.hasSendable() {
		s.queued = false
		c.sendable = slices.Delete(c.sendable, k, k+1)
	}
	return sf
}

func (c *Conn) sendPacket(p *packet) {
	if p.isAckEliciting() {
		c.track(p)
		c.armPTO()
	}
	c.transmit(p)
}

// track records p as in flight, in a retired record from the free list
// when there is one.
func (c *Conn) track(p *packet) {
	sp, ok := c.pools.sents.Get()
	if !ok {
		sp = &sentPacket{}
	}
	sp.pn, sp.frames, sp.size, sp.sentAt = p.pn, p.frames, p.wireSize(), c.sched.Now()
	c.sent.push(sp)
	c.bytesInFlight += sp.size
}

// retireAcked recycles an acked sentPacket: the packet was delivered and
// processed, so its frames array has no other holder. Stream frame
// structs drop this record's hold and recycle once the count drains — a
// PTO probe may have copied their pointers into another in-flight
// record, which keeps its own hold. The last hold draining is also the
// one moment a byte range counts as acknowledged on its sending stream.
// Handshake frames are never pooled.
func (c *Conn) retireAcked(sp *sentPacket) {
	for i, f := range sp.frames {
		if f, ok := f.(*streamFrame); ok {
			if f.holds == 1 {
				f.s.frameAcked(f.n, f.fin)
			}
			c.pools.releaseHold(f)
		}
		sp.frames[i] = nil
	}
	c.pools.frames.Put(sp.frames[:0])
	sp.frames = nil
	c.pools.sents.Put(sp)
}

// --- loss detection & congestion ---

// ptoDuration is the estimator's timeout doubled once per consecutive
// probe fire, up to the profile's ceiling.
func (c *Conn) ptoDuration() time.Duration {
	base := c.rtt.Timeout()
	for i := 0; i < c.ptoCount; i++ {
		base *= 2
		if base >= c.prof.TimeoutCeiling {
			return c.prof.TimeoutCeiling
		}
	}
	return base
}

func (c *Conn) armPTO() {
	if c.ptoTimer == nil {
		// Teardown released the timer (see teardown). A stray re-arm —
		// e.g. from an establishment callback that closed the connection
		// — must be a no-op, not a nil dereference.
		return
	}
	if c.sent.len() == 0 {
		c.ptoTimer.Stop()
		return
	}
	c.ptoTimer.Reset(c.ptoDuration())
}

func (c *Conn) onPTO() {
	if c.state == stateClosed {
		return
	}
	if c.ptoCount == 0 {
		c.probeStart = c.sched.Now()
	}
	c.ptoCount++
	// Exhausting MaxPTOs alone is not fatal: the backoff base can be as
	// small as the profile's floor, so the count must be paired with a
	// virtual-time floor (probeTimeout) before the connection gives up —
	// this is what lets a connection survive a multi-second blackout.
	if c.ptoCount > c.cfg.MaxPTOs && c.sched.Now()-c.probeStart >= probeTimeout {
		if c.cfg.Recovery != nil {
			c.cfg.Recovery.ConnFailures++
		}
		c.cfg.Trace.QUICConnFail(c.sched.Now(), c.traceID, ErrTimeout.Error())
		wasEstablished := c.state == stateEstablished
		// The close probes still use the conn after the owner, told by
		// fail, may have released it.
		c.steps++
		c.fail(ErrTimeout)
		c.steps--
		if wasEstablished {
			c.startCloseProbes()
		}
		c.maybeRetire()
		return
	}
	if c.cfg.Recovery != nil {
		c.cfg.Recovery.ProbeFires++
	}
	c.cfg.Trace.QUICPTOFire(c.sched.Now(), c.traceID, c.ptoCount)
	// Probe: retransmit the oldest unacked ack-eliciting packet's
	// frames in a fresh packet, bypassing the congestion window.
	if c.sent.len() > 0 {
		frames, _ := c.pools.frames.Get()
		frames = append(frames, c.sent.live()[0].frames...)
		// The probe record takes an additional hold on each copied
		// stream frame: the original record keeps its own, and either
		// may retire first.
		for _, f := range frames {
			if sf, ok := f.(*streamFrame); ok {
				sf.holds++
			}
		}
		p := newPacket(c.pools)
		p.pn = c.nextPN
		p.frames = frames
		c.nextPN++
		c.track(p)
		c.transmit(p)
	}
	if c.ptoCount >= 2 {
		// Persistent-congestion-lite: collapse to the minimum window.
		c.win.Collapse()
	}
	c.armPTO()
}

// handleAck retires the in-flight packets an ACK with ranges acknowledges,
// then declares losses. ranges is descending and disjoint (rangeSet.snapshot) and
// c.sent ascending by pn, so one upward walk of both in lockstep, from
// the first record at or above the lowest acked pn, finds every covered
// record; they retire in pn order, which the order-dependent cwnd float
// arithmetic needs. The walk stops past the highest range: packets sent
// after it are never touched.
func (c *Conn) handleAck(ranges []pnRange) {
	r := len(ranges) - 1
	if r < 0 {
		return
	}
	live := c.sent.live()
	i := sort.Search(len(live), func(i int) bool { return live[i].pn >= ranges[r].lo })
	retired := 0
	var largestAcked uint64
	var largestSentAt time.Duration
	for ; i < len(live); i++ {
		sp := live[i]
		for r >= 0 && ranges[r].hi < sp.pn {
			r--
		}
		if r < 0 {
			break
		}
		if sp.pn < ranges[r].lo {
			continue
		}
		retired++
		largestAcked, largestSentAt = sp.pn, sp.sentAt
		c.bytesInFlight -= sp.size
		c.win.OnAck(float64(sp.size)) // growth per acked byte
		c.retireAcked(sp)
		live[i] = nil
	}
	if retired == 0 {
		return
	}
	// Close the holes by sliding the survivors below them up, toward the
	// packets sent later; an ACK of the oldest packets moves nothing.
	w := i
	for j := i - 1; j >= 0; j-- {
		if sp := live[j]; sp != nil {
			w--
			live[w] = sp
		}
	}
	c.sent.drop(w)
	c.win.Clamp()
	c.rtt.Sample(c.sched.Now() - largestSentAt)
	if c.ptoCount >= 2 && c.cfg.Recovery != nil {
		// Progress after ≥2 consecutive probe fires: the connection rode
		// out a blackout rather than an isolated drop.
		c.cfg.Recovery.OutageCrossings++
	}
	c.ptoCount = 0

	// Packet-threshold loss detection: pn+threshold is increasing along
	// the ordered list, so lost packets form a prefix.
	live = c.sent.live()
	lost := 0
	for lost < len(live) && live[lost].pn+reorderThreshold <= largestAcked {
		lost++
	}
	c.cfg.Trace.QUICAck(c.sched.Now(), c.traceID, int64(largestAcked), len(ranges), lost)
	for _, sp := range live[:lost] {
		c.bytesInFlight -= sp.size
		if c.cfg.Recovery != nil {
			c.cfg.Recovery.PacketsDeclaredLost++
		}
		c.cfg.Trace.QUICPacketLost(c.sched.Now(), c.traceID, int64(sp.pn))
		c.sendQ = append(c.sendQ, sp.frames...)
		if sp.pn >= c.recoveryStart {
			// One cwnd reduction per recovery epoch.
			c.win.Halve(c.win.Cwnd)
			c.recoveryStart = c.nextPN
		}
		// The record retires, but its frames array may still be aliased
		// by a reorder-delayed wire copy: recycle the struct only. The
		// stream-frame holds it owned transferred to sendQ above, so
		// counts are unchanged.
		sp.frames = nil
		c.pools.sents.Put(sp)
	}
	c.sent.drop(lost)

	c.armPTO()
	c.trySend()
}

// --- receiving ---

func (c *Conn) handlePacket(p *packet) {
	if c.state == stateClosed {
		return
	}
	if p.dcid != 0 && c.cid != 0 && p.dcid != c.cid {
		// A previous user of this 4-tuple (the ephemeral port was
		// recycled): the packet — often a late CONNECTION_CLOSE probe
		// from the dead connection — must not touch this one.
		return
	}
	if !c.recvd.add(p.pn) {
		// Duplicate packet number. Retransmissions always use fresh
		// packet numbers, so a genuine duplicate only ever arrives
		// carrying this connection's ID; a dcid-less "duplicate" is a
		// stale incarnation's packet number colliding with history —
		// re-ACKing it would falsely acknowledge data the peer never
		// delivered here.
		if p.dcid != 0 && p.dcid == c.cid {
			c.cfg.Trace.QUICPacketRecv(c.sched.Now(), c.traceID, int64(p.pn), true)
			c.ackQueued = true
			c.trySend()
		}
		return
	}
	c.cfg.Trace.QUICPacketRecv(c.sched.Now(), c.traceID, int64(p.pn), false)
	if len(p.ack) > 0 {
		c.handleAck(p.ack)
		if c.state == stateClosed {
			return
		}
	}
	if p.close != nil {
		c.teardown()
		if c.closeFn != nil {
			c.closeFn(p.close.err)
		}
		return
	}
	data := p.data
	for _, f := range p.frames {
		switch f := f.(type) {
		case *clientHelloFrame:
			c.handleClientHello(f)
		case *serverHelloFrame:
			c.handleServerHello(f)
		case finishedFrame:
			// Confirms the client reached 1-RTT; nothing further.
		case *streamFrame:
			c.handleStreamData(data[0])
			data = data[1:]
		}
		if c.state == stateClosed {
			return
		}
	}
	if p.isAckEliciting() {
		c.ackQueued = true
	}
	c.trySend()
}

func (c *Conn) handleClientHello(f *clientHelloFrame) {
	if c.isClient {
		return
	}
	if c.chSeen {
		return // duplicate via client probe; our SH PTO covers it
	}
	c.chSeen = true
	c.chNonce = f.nonce
	c.serverName = f.serverName
	resumed := c.scfg.Sessions != nil && c.scfg.Sessions.valid(f.token)
	c.resumed = resumed
	c.zeroRTT = resumed && f.zeroRTT
	if f.zeroRTT {
		// The server's 0-RTT decision: early data rides on a valid
		// resumption token or is rejected with the handshake falling
		// back to 1-RTT.
		c.cfg.Trace.QUICZeroRTT(c.sched.Now(), c.traceID, c.zeroRTT)
	}
	if resumed {
		c.scfg.Sessions.resumeCwnd(f.token, &c.win, c.prof.MaxWindow/2)
	}
	if c.endpoint != nil && c.endpoint.accept != nil {
		c.endpoint.accept(c)
	}
	cpu := c.scfg.HandshakeCPU
	if resumed {
		cpu /= 2
	}
	if cpu > 0 {
		c.after(cpu, serverHelloEvent)
	} else {
		c.sendServerHello()
	}
}

// sendServerHello answers the ClientHello, once the handshake CPU time
// has passed, with the resumption verdict it drew (c.resumed).
func (c *Conn) sendServerHello() {
	if c.state == stateClosed {
		return
	}
	sh := &serverHelloFrame{resumed: c.resumed, cid: c.cid}
	if c.scfg.Sessions != nil {
		sh.newToken = c.scfg.Sessions.issue()
		c.issuedToken = sh.newToken
	}
	c.sendQ = append(c.sendQ, sh)
	c.becomeEstablished()
}

func (c *Conn) handleServerHello(f *serverHelloFrame) {
	if !c.isClient || c.shSeen {
		return
	}
	c.shSeen = true
	c.resumed = f.resumed
	c.cid = f.cid
	if f.newToken != 0 && c.ccfg.Tokens != nil {
		c.ccfg.Tokens.Put(Token{ID: f.newToken, ServerName: c.ccfg.ServerName})
	}
	c.sendQ = append(c.sendQ, finishedFrame{})
	cpu := c.ccfg.HandshakeCPU
	if c.resumed {
		cpu /= 2
	}
	if cpu > 0 {
		c.after(cpu, finishEvent)
	} else {
		c.finishHandshake()
	}
}

// finishHandshake establishes the client once its handshake CPU time has
// passed.
func (c *Conn) finishHandshake() {
	if c.state == stateClosed {
		return
	}
	c.becomeEstablished()
	c.trySend()
}

func (c *Conn) handleStreamData(f streamData) {
	s, ok := c.streams[f.id]
	if !ok {
		s = c.pools.newStream(c, f.id)
		s.order = len(c.streams)
		c.streams[f.id] = s
		if c.streamFn != nil {
			c.streamFn(s)
		}
	}
	s.receive(f)
}
