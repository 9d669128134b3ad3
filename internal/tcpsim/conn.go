package tcpsim

import (
	"time"

	"h3cdn/internal/bytestream"
	"h3cdn/internal/cc"
	"h3cdn/internal/simnet"
	"h3cdn/internal/trace"
)

type connState uint8

const (
	stateSynSent connState = iota + 1
	stateSynRcvd
	stateEstablished
	stateClosed
)

// Conn is one endpoint of a simulated TCP connection. It implements
// bytestream.Stream. All methods must be called from scheduler context.
type Conn struct {
	host  *simnet.Host
	sched *simnet.Scheduler
	cfg   Config

	remote     simnet.Addr
	route      *simnet.Route // to remote, resolved once per connection
	localPort  uint16
	remotePort uint16
	state      connState
	isClient   bool
	listener   *Listener // server side only; for conn-table cleanup

	// Sender state. Bytes [sndUna, sndEnd) are written and not yet
	// acknowledged. The window stores only the supplied ones: extents
	// lists them in offset order, and everything between is opaque. Each
	// data segment gets its own payload buffer, filled from the extents
	// when it is built (Extents.Payload), or an opaque run when it holds
	// no supplied byte, so an extent goes back as soon as sndUna passes
	// it and an idle connection holds nothing.
	sndUna  uint64
	sndNxt  uint64
	sndEnd  uint64
	extents bytestream.Extents
	sentFin bool
	finSeq  uint64
	closing bool // Close() called: FIN queued after pending data

	// Congestion control: the shared NewReno window, plus fast recovery.
	win        cc.Window
	inRecovery bool
	recover    uint64
	dupAcks    int

	// RTO (RFC 6298) with Karn's algorithm: rto is the estimator's
	// timeout, doubled per fire until the next valid sample re-seeds it.
	rtt         cc.RTT
	rto         time.Duration
	rtoTimer    *simnet.Timer
	retries     int
	timedSeq    uint64
	timedSentAt time.Duration
	timedValid  bool
	synSentAt   time.Duration
	synRetrans  bool

	// Receiver state: strict in-order delivery of the whole connection,
	// so one hole holds back every byte above it. rcv parks what arrives
	// beyond a gap in the wire arena (cfg.Arena).
	rcv      bytestream.Reassembly
	finRcvd  bool // FIN delivered to app
	finAcked bool // our FIN acknowledged

	// Tracing. traceID is 0 when untraced; HOL-stall bookkeeping only
	// runs when a tracer is installed (purely observational — it can
	// never perturb scheduling).
	traceID uint32

	// onEstablished fires once the handshake completes: the dialer's
	// callback, or the listener's accept.
	onEstablished func(*Conn)
	closeFn       func(error)

	// pktFn/onRTOFn are bound once when the struct is first allocated and
	// survive pooling: they read receiver fields at call time, so a
	// recycled conn reuses them instead of closing over itself again.
	pktFn   func(simnet.Packet)
	onRTOFn func()

	drainFn        func()
	drainThreshold int
	notifying      bool
}

var _ bytestream.Stream = (*Conn)(nil)

// Dial opens a client connection from host to dst:dstPort. onEstablished
// fires when the 3-way handshake completes; writes issued earlier are
// queued and flushed at that point.
func Dial(host *simnet.Host, dst simnet.Addr, dstPort uint16, cfg Config, onEstablished func(*Conn)) *Conn {
	cfg = cfg.withDefaults()
	c := newConn(host, dst, cfg)
	c.isClient = true
	c.remotePort = dstPort
	c.localPort = host.BindEphemeral(c.pktFn)
	c.state = stateSynSent
	c.onEstablished = onEstablished
	c.synSentAt = c.sched.Now()
	cfg.Trace.TCPSynSent(c.synSentAt, c.traceID)
	c.sendFlags(flagSYN)
	c.armRTO()
	return c
}

func newConn(host *simnet.Host, remote simnet.Addr, cfg Config) *Conn {
	c, ok := cfg.Pools.conns.Get(host.Scheduler(), (*Conn).reset)
	if !ok {
		c = allocConn()
	}
	c.host = host
	c.remote = remote
	c.route = host.Route(remote)
	c.sched = host.Scheduler()
	c.cfg = cfg
	c.win = cc.NewWindow(&profile)
	c.rtt = cc.NewRTT(&profile)
	c.rto = c.rtt.Timeout()
	c.rtoTimer = c.sched.NewTimer(c.onRTOFn)
	c.traceID = cfg.Trace.ConnID()
	return c
}

// allocConn allocates a conn with its packet and RTO callbacks bound.
func allocConn() *Conn {
	c := &Conn{}
	c.pktFn = func(pkt simnet.Packet) {
		if seg, ok := pkt.Payload.(*segment); ok {
			c.handleSegment(seg)
		}
	}
	c.onRTOFn = c.onRTO
	return c
}

// reset clears a retired conn for reuse, keeping only the allocations
// that survive pooling: the parked chunks' array and the extent list
// (both emptied at teardown) and the bound-once packet/RTO closures. The
// recycler calls it once the event that tore the conn down has returned.
func (c *Conn) reset() {
	c.rcv.Reset()
	rcv, extents, pktFn, onRTOFn := c.rcv, c.extents, c.pktFn, c.onRTOFn
	*c = Conn{rcv: rcv, extents: extents, pktFn: pktFn, onRTOFn: onRTOFn}
}

// TraceID returns the connection's trace id (0 when untraced).
func (c *Conn) TraceID() uint32 { return c.traceID }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// SetDataFunc registers the in-order delivery callback.
func (c *Conn) SetDataFunc(fn func([]byte)) { c.rcv.SetDataFunc(fn) }

// UnsentBytes reports bytes accepted by Write but not yet transmitted.
func (c *Conn) UnsentBytes() int { return int(c.sndEnd - min(c.sndNxt, c.sndEnd)) }

// SetDrainFunc registers fn, invoked whenever the unsent backlog falls to
// or below threshold after transmission progress (bytestream.Throttled).
func (c *Conn) SetDrainFunc(threshold int, fn func()) {
	c.drainThreshold = threshold
	c.drainFn = fn
}

func (c *Conn) maybeNotifyDrain() {
	if c.drainFn == nil || c.notifying || c.state != stateEstablished {
		return
	}
	if c.UnsentBytes() > c.drainThreshold {
		return
	}
	c.notifying = true
	c.drainFn()
	c.notifying = false
}

// SetCloseFunc registers the end-of-stream callback.
func (c *Conn) SetCloseFunc(fn func(error)) { c.closeFn = fn }

// Write queues p for transmission.
func (c *Conn) Write(p []byte) { c.WriteOpaque(p, 0) }

// WriteOpaque queues head followed by n opaque bytes. Only head is
// stored, as an extent; the opaque bytes advance sndEnd and nothing else.
func (c *Conn) WriteOpaque(head []byte, n int) {
	if c.state == stateClosed || c.closing {
		return
	}
	c.extents.Add(&c.cfg.Pools.extents, c.sndEnd, head)
	c.sndEnd += uint64(len(head) + n)
	if c.state == stateEstablished {
		c.trySend()
	}
}

// Close flushes pending data, then sends FIN.
func (c *Conn) Close() {
	if c.state == stateClosed || c.closing {
		return
	}
	c.closing = true
	if c.state == stateEstablished {
		c.trySend()
	}
}

// Abort tears the connection down, sending a single RST so the peer
// releases its state too. No callbacks fire locally after Abort.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendFlags(flagRST)
	c.teardown()
}

// resetProbeLimit bounds the RST re-sends after a timeout abort.
const resetProbeLimit = 12

// startResetProbes re-sends RST with exponential spacing after an
// established connection aborts on max retries. The peer may be
// mid-receive with nothing of its own in flight, so a single RST lost to
// the same loss burst or outage that killed the connection would strand
// it — and the page load above it — forever. Real stacks escape via
// application read timeouts; the simulator deliberately arms no timers
// on healthy paths, so the abort itself carries the persistence.
func (c *Conn) startResetProbes() {
	p := &resetProbe{
		route: c.route, sched: c.sched, pools: c.cfg.Pools,
		localPort: c.localPort, remotePort: c.remotePort,
		seq: c.sndNxt, ack: c.rcvNxt(), gap: profile.FirstTimeout,
	}
	p.fire()
}

// resetProbe is one abort's RST series. It copies what a RST carries
// instead of holding the conn, which is torn down when the series starts
// and may be recycled before it ends.
type resetProbe struct {
	route                 *simnet.Route
	sched                 *simnet.Scheduler
	pools                 *Pools
	localPort, remotePort uint16
	seq, ack              uint64
	gap                   time.Duration
	n                     int
}

func fireResetProbe(x any) { x.(*resetProbe).fire() }

func (p *resetProbe) fire() {
	seg := newSegment(p.pools)
	seg.flags = flagRST | flagACK
	seg.seq = p.seq
	seg.ack = p.ack
	p.route.Send(p.localPort, p.remotePort, seg.wireSize(), seg)
	p.n++
	if p.n >= resetProbeLimit {
		return
	}
	p.sched.AfterArg(p.gap, fireResetProbe, p)
	p.gap = min(2*p.gap, profile.TimeoutCeiling)
}

func (c *Conn) teardown() {
	c.state = stateClosed
	c.rtoTimer.Release()
	c.rtoTimer = nil
	if c.isClient {
		// Server connections share the listener's port.
		c.host.Unbind(c.localPort)
	}
	if c.listener != nil {
		c.listener.remove(c.remote, c.remotePort)
	}
	// Segments own their payloads, so nothing on the wire reads the
	// extents and they go back at once, in flight or not. The struct
	// is free from the next event on: the timer is released, the port
	// unbound, reset probes hold a copy, and the layer above stops
	// calling once it learns of the teardown (tlssim) or caused it.
	c.extents.Release(&c.cfg.Pools.extents)
	c.rcv.Release(c.cfg.Arena)
	c.cfg.Pools.conns.Retire(c, c.sched)
}

func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.teardown()
	c.deliverClose(err)
}

// deliverClose reports the end of the stream: nil for the peer's FIN,
// an error for a failure teardown. Each happens at most once, and a
// failure after the FIN is reported too, so the layer above always
// learns that the struct is gone before it could be recycled.
func (c *Conn) deliverClose(err error) {
	if c.closeFn != nil {
		c.closeFn(err)
	}
}

// --- segment I/O ---

func (c *Conn) sendSeg(seg *segment) {
	seg.flags |= flagACK
	seg.ack = c.rcvNxt()
	c.route.Send(c.localPort, c.remotePort, seg.wireSize(), seg)
}

func (c *Conn) sendFlags(f segFlags) {
	seg := newSegment(c.cfg.Pools)
	seg.flags = f
	if f&flagSYN != 0 && f&flagACK == 0 {
		// Initial SYN carries no ACK.
		c.route.Send(c.localPort, c.remotePort, seg.wireSize(), seg)
		return
	}
	c.sendSeg(seg)
}

func (c *Conn) handleSegment(seg *segment) {
	if c.state == stateClosed {
		return
	}

	if seg.flags&flagRST != 0 {
		c.fail(ErrAborted)
		return
	}

	switch c.state {
	case stateSynSent:
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK {
			c.establish()
			c.sendFlags(flagACK)
			if c.onEstablished != nil {
				c.onEstablished(c)
			}
			c.trySend()
		}
		return
	case stateSynRcvd:
		if seg.flags&flagACK != 0 && seg.flags&flagSYN == 0 {
			c.establish()
			if c.onEstablished != nil {
				c.onEstablished(c)
			}
			// Fall through: this segment may carry data.
		} else {
			if seg.flags&flagSYN != 0 && !c.isClient {
				// Retransmitted SYN: repeat SYN-ACK.
				c.synRetrans = true
				c.sendFlags(flagSYN | flagACK)
			}
			return
		}
	case stateEstablished:
		if seg.flags&flagSYN != 0 {
			return // stray handshake duplicate
		}
	}

	c.processAck(seg)
	if len(seg.payload) > 0 || seg.flags&flagFIN != 0 {
		c.processData(seg)
	}
	c.trySend()
	c.maybeNotifyDrain()
	c.maybeFinish()
}

// establish completes the handshake. Its round trip is the first RTT
// sample unless a SYN or SYN-ACK went out again (Karn).
func (c *Conn) establish() {
	c.state = stateEstablished
	c.cfg.Trace.TCPEstablished(c.sched.Now(), c.traceID, c.isClient)
	if !c.synRetrans {
		c.rttSample(c.sched.Now() - c.synSentAt)
	}
	c.noteRecovered()
	c.rtoTimer.Stop()
}

// --- sender ---

func (c *Conn) flight() uint64 { return c.sndNxt - c.sndUna }

func (c *Conn) trySend() {
	if c.state != stateEstablished {
		return
	}
	c.win.Clamp()
	for {
		if float64(c.flight()) >= c.win.Cwnd {
			return
		}
		if c.sndNxt < c.sndEnd {
			n := min(c.sndEnd-c.sndNxt, mss)
			seg := newSegment(c.cfg.Pools)
			seg.seq = c.sndNxt
			seg.payload = c.extents.Payload(&c.cfg.Pools.payloads, c.sndNxt, int(n))
			c.markTimed(seg)
			c.sndNxt += n
			c.sendSeg(seg)
			c.armRTOIfIdle()
			continue
		}
		// All buffered data sent; maybe FIN.
		if c.closing && !c.sentFin {
			c.sentFin = true
			c.finSeq = c.sndEnd
			seg := newSegment(c.cfg.Pools)
			seg.flags = flagFIN
			seg.seq = c.finSeq
			c.sndNxt = c.finSeq + 1
			c.sendSeg(seg)
			c.armRTOIfIdle()
		}
		return
	}
}

func (c *Conn) markTimed(seg *segment) {
	if !c.timedValid {
		c.timedValid = true
		c.timedSeq = seg.end()
		c.timedSentAt = c.sched.Now()
	}
}

func (c *Conn) armRTO() { c.rtoTimer.Reset(c.rto) }

func (c *Conn) armRTOIfIdle() {
	if !c.rtoTimer.Armed() {
		c.armRTO()
	}
}

func (c *Conn) processAck(seg *segment) {
	if seg.flags&flagACK == 0 {
		return
	}
	switch {
	case seg.ack > c.sndUna:
		acked := seg.ack - c.sndUna
		c.sndUna = seg.ack
		c.extents.Trim(&c.cfg.Pools.extents, c.sndUna)
		if c.sndNxt < c.sndUna {
			c.sndNxt = c.sndUna
		}
		if c.sentFin && seg.ack >= c.finSeq+1 {
			c.finAcked = true
		}
		if c.timedValid && seg.ack >= c.timedSeq {
			c.rttSample(c.sched.Now() - c.timedSentAt)
			c.timedValid = false
		}
		c.noteRecovered()
		if c.flight() == 0 {
			c.rtoTimer.Stop()
		} else {
			c.armRTO()
		}
		if c.inRecovery {
			if seg.ack > c.recover {
				// Full acknowledgment: leave fast recovery.
				c.inRecovery = false
				c.win.Cwnd = c.win.Ssthresh
				c.dupAcks = 0
				c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.win.Cwnd), int(c.win.Ssthresh), trace.CwndRecoveryExit)
			} else {
				// Partial ACK (NewReno): retransmit next hole,
				// deflate by amount acked, inflate by one MSS.
				c.retransmitFirst()
				c.win.Cwnd = max(c.win.Cwnd-float64(acked), mss) + mss
			}
		} else {
			c.dupAcks = 0
			c.win.OnAck(mss)
		}
	case seg.ack == c.sndUna && c.flight() > 0 && len(seg.payload) == 0 && seg.flags&(flagSYN|flagFIN) == 0:
		c.dupAcks++
		switch {
		case c.inRecovery:
			c.win.Cwnd += mss // window inflation
		case c.dupAcks == 3:
			if c.cfg.Recovery != nil {
				c.cfg.Recovery.FastRetransmits++
			}
			c.cfg.Trace.TCPFastRetransmit(c.sched.Now(), c.traceID, int64(c.sndUna))
			c.enterRecovery()
		}
	}
}

func (c *Conn) enterRecovery() {
	c.win.Halve(float64(c.flight()))
	c.recover = c.sndNxt
	c.inRecovery = true
	c.retransmitFirst()
	c.win.Cwnd = c.win.Ssthresh + 3*mss
	c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.win.Cwnd), int(c.win.Ssthresh), trace.CwndFastRecovery)
}

// noteRecovered records forward progress (a valid ACK or handshake
// completion) after consecutive RTO fires. Two or more fires before the
// peer answered mark the episode as an outage crossing: the connection
// survived a blackout instead of isolated loss. The backed-off RTO is
// intentionally kept (Karn) — the next valid RTT sample re-seeds it from
// the estimator in rttSample.
func (c *Conn) noteRecovered() {
	if c.retries >= 2 && c.cfg.Recovery != nil {
		c.cfg.Recovery.OutageCrossings++
	}
	c.retries = 0
}

func (c *Conn) retransmitFirst() {
	if c.cfg.Recovery != nil {
		c.cfg.Recovery.Retransmits++
	}
	c.timedValid = false // Karn: no sampling across retransmission
	if c.sentFin && c.sndUna == c.finSeq {
		seg := newSegment(c.cfg.Pools)
		seg.flags = flagFIN
		seg.seq = c.finSeq
		c.sendSeg(seg)
		c.armRTO()
		return
	}
	sent := min(c.sndNxt, c.sndEnd)
	if sent <= c.sndUna {
		return
	}
	seg := newSegment(c.cfg.Pools)
	seg.seq = c.sndUna
	seg.payload = c.extents.Payload(&c.cfg.Pools.payloads, c.sndUna, int(min(sent-c.sndUna, mss)))
	c.sendSeg(seg)
	c.armRTO()
}

func (c *Conn) onRTO() {
	if c.state == stateClosed {
		return
	}
	c.retries++
	if c.retries > c.cfg.MaxRetries {
		// Max-retry abort: a retryable transport error (the application
		// may redial), not a silent drop.
		err := ErrTimeout
		if c.state == stateSynSent {
			err = ErrRefused
		}
		// Probe only mid-conversation aborts: a conn aborting after Close
		// (lost final FIN/ACK against a peer that already tore down) has
		// nothing the peer still waits for, and baseline traces contain
		// such zombies — probing them would perturb healthy-path event
		// ordering.
		notify := c.state == stateEstablished && !c.closing
		if c.cfg.Recovery != nil {
			c.cfg.Recovery.ConnFailures++
		}
		c.cfg.Trace.TCPConnFail(c.sched.Now(), c.traceID, err.Error())
		c.fail(err)
		if notify {
			c.startResetProbes()
		}
		return
	}
	if c.cfg.Recovery != nil {
		c.cfg.Recovery.Timeouts++
	}
	c.cfg.Trace.TCPRTOFire(c.sched.Now(), c.traceID, c.retries, c.rto)
	c.rto = min(2*c.rto, profile.TimeoutCeiling)

	switch c.state {
	case stateSynSent:
		c.synRetrans = true
		c.sendFlags(flagSYN)
		c.armRTO()
	case stateSynRcvd:
		c.synRetrans = true
		c.sendFlags(flagSYN | flagACK)
		c.armRTO()
	default:
		c.win.Halve(float64(c.flight()))
		c.win.Collapse()
		c.inRecovery = false
		c.dupAcks = 0
		c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.win.Cwnd), int(c.win.Ssthresh), trace.CwndRTOCollapse)
		c.retransmitFirst()
	}
}

// rttSample feeds the estimator and re-seeds the RTO from it.
func (c *Conn) rttSample(sample time.Duration) {
	c.rtt.Sample(sample)
	c.rto = c.rtt.Timeout()
}

// --- receiver ---

func (c *Conn) processData(seg *segment) {
	if seg.end() <= c.rcvNxt() {
		// Fully duplicate; re-ACK so the sender advances.
		c.sendFlags(flagACK)
		return
	}
	c.rcv.Receive(c.cfg.Arena, seg.seq, seg.payload, seg.flags&flagFIN != 0)
	// HOL-stall bookkeeping: data buffered beyond a sequence gap means
	// the application is head-of-line blocked. Tracer-gated — the state
	// is only read here, so an untraced connection skips it entirely.
	if c.cfg.Trace != nil {
		now := c.sched.Now()
		switch opened, parked, closed, held := c.rcv.Stall(now); {
		case opened:
			c.cfg.Trace.TCPHolStart(now, c.traceID, parked)
		case closed:
			c.cfg.Trace.TCPHolEnd(now, c.traceID, held)
		}
	}
	c.sendFlags(flagACK)
}

// rcvNxt is the next sequence number expected from the peer: the
// stream offset, plus one once EOF is reached, since the FIN takes a
// sequence number of its own.
func (c *Conn) rcvNxt() uint64 {
	if c.rcv.EOF() {
		return c.rcv.Next() + 1
	}
	return c.rcv.Next()
}

// maybeFinish completes teardown once both directions are done.
func (c *Conn) maybeFinish() {
	if c.state != stateEstablished {
		return
	}
	if c.rcv.EOF() && !c.finRcvd {
		c.finRcvd = true
		// Passive close: reply with our own FIN once the app closes;
		// deliver EOF now.
		c.deliverClose(nil)
	}
	if c.finAcked && c.rcv.EOF() {
		c.teardown()
	}
}
