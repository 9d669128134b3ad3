package tcpsim

import (
	"time"

	"h3cdn/internal/bytestream"
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

// recvChunk is a reassembly-arena copy of bytes that arrived beyond a
// sequence gap; fin marks a segment that carried the FIN.
type recvChunk struct {
	data []byte
	fin  bool
}

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
	// when it is built (Extents.Payload), so an extent goes back as soon
	// as sndUna passes it and an idle connection holds nothing.
	sndUna  uint64
	sndNxt  uint64
	sndEnd  uint64
	extents bytestream.Extents
	sentFin bool
	finSeq  uint64
	closing bool // Close() called: FIN queued after pending data

	// Congestion control (NewReno), in bytes.
	cwnd       float64
	ssthresh   float64
	inRecovery bool
	recover    uint64
	dupAcks    int

	// RTO (RFC 6298) with Karn's algorithm.
	rto         time.Duration
	srtt        time.Duration
	rttvar      time.Duration
	hasRTT      bool
	rtoTimer    *simnet.Timer
	retries     int
	timedSeq    uint64
	timedSentAt time.Duration
	timedValid  bool
	synSentAt   time.Duration
	synRetrans  bool

	// Receiver state: strict in-order delivery. recvBuf holds only what
	// arrived beyond a gap; every chunk in it starts above rcvNxt between
	// segments (advanceReceive consumes the rest).
	rcvNxt    uint64
	recvBuf   bytestream.Gaps[recvChunk]
	peerEOF   bool
	finRcvd   bool // FIN delivered to app
	finAcked  bool // our FIN acknowledged
	closeSent bool // close callback delivered

	// Tracing. traceID is 0 when untraced; HOL-stall bookkeeping only
	// runs when a tracer is installed (purely observational — it can
	// never perturb scheduling).
	traceID   uint32
	holActive bool
	holStart  time.Duration

	onEstablished func()
	dataFn        func([]byte)
	closeFn       func(error)

	// pktFn/onRTOFn are bound once when the struct is first allocated and
	// survive pooling: they read receiver fields at call time, so a
	// recycled conn reuses them instead of closing over itself again.
	pktFn   func(simnet.Packet)
	onRTOFn func()

	drainFn        func()
	drainThreshold int
	notifying      bool

	stats ConnStats
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
	if onEstablished != nil {
		c.onEstablished = func() { onEstablished(c) }
	}
	c.synSentAt = c.sched.Now()
	cfg.Trace.TCPSynSent(c.synSentAt, c.traceID)
	c.sendFlags(flagSYN)
	c.armRTO()
	return c
}

func newConn(host *simnet.Host, remote simnet.Addr, cfg Config) *Conn {
	c, ok := cfg.Pools.conns.Get()
	if !ok {
		c = &Conn{}
		cc := c
		c.pktFn = func(pkt simnet.Packet) {
			if seg, ok := pkt.Payload.(*segment); ok {
				cc.handleSegment(seg)
			}
		}
		c.onRTOFn = cc.onRTO
	}
	c.host = host
	c.remote = remote
	c.route = host.Route(remote)
	c.sched = host.Scheduler()
	c.cfg = cfg
	c.cwnd = initCwndSegs * mss
	c.rto = rtoInit
	c.ssthresh = maxCwndSegs * mss
	c.rtoTimer = c.sched.NewTimer(c.onRTOFn)
	c.traceID = cfg.Trace.ConnID()
	return c
}

// reset clears a retired conn for reuse, keeping only the allocations
// that survive pooling: the gap buffer and the extent list (both emptied
// at teardown) and the bound-once packet/RTO closures. Called from
// Pools.Rewind only — never before the scheduler drains.
func (c *Conn) reset() {
	recvBuf, extents, pktFn, onRTOFn := c.recvBuf, c.extents, c.pktFn, c.onRTOFn
	*c = Conn{recvBuf: recvBuf, extents: extents, pktFn: pktFn, onRTOFn: onRTOFn}
}

// TraceID returns the connection's trace id (0 when untraced).
func (c *Conn) TraceID() uint32 { return c.traceID }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() simnet.Addr { return c.remote }

// LocalPort returns the local port number.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Stats returns a snapshot of connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// SmoothedRTT returns the current SRTT estimate (zero before any sample).
func (c *Conn) SmoothedRTT() time.Duration { return c.srtt }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// SetDataFunc registers the in-order delivery callback.
func (c *Conn) SetDataFunc(fn func([]byte)) { c.dataFn = fn }

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

func (c *Conn) sendReset() {
	seg := newSegment(c.cfg.Pools)
	seg.flags = flagRST | flagACK
	seg.seq = c.sndNxt
	seg.ack = c.rcvNxt
	c.stats.SegsSent++
	c.route.Send(c.localPort, c.remotePort, seg.wireSize(), seg)
}

// startResetProbes re-sends RST with exponential spacing after an
// established connection aborts on max retries. The peer may be
// mid-receive with nothing of its own in flight, so a single RST lost to
// the same loss burst or outage that killed the connection would strand
// it — and the page load above it — forever. Real stacks escape via
// application read timeouts; the simulator deliberately arms no timers
// on healthy paths, so the abort itself carries the persistence.
func (c *Conn) startResetProbes() {
	gap := rtoInit
	n := 0
	var fire func()
	fire = func() {
		c.sendReset()
		n++
		if n >= resetProbeLimit {
			return
		}
		c.sched.After(gap, fire)
		gap *= 2
		if gap > rtoMax {
			gap = rtoMax
		}
	}
	fire()
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
	// extents and they go back at once, in flight or not. The conn
	// itself waits for Rewind — late closures still read the struct.
	c.extents.Release(&c.cfg.Pools.extents)
	c.recvBuf.Each(func(_ uint64, chunk recvChunk) { c.cfg.Arena.Put(chunk.data) })
	c.recvBuf.Reset()
	c.cfg.Pools.retiredConns = append(c.cfg.Pools.retiredConns, c)
}

func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.teardown()
	c.deliverClose(err)
}

func (c *Conn) deliverClose(err error) {
	if c.closeSent {
		return
	}
	c.closeSent = true
	if c.closeFn != nil {
		c.closeFn(err)
	}
}

// --- segment I/O ---

func (c *Conn) sendSeg(seg *segment) {
	seg.flags |= flagACK
	seg.ack = c.rcvNxt
	c.stats.SegsSent++
	c.stats.BytesSent += int64(len(seg.payload))
	c.route.Send(c.localPort, c.remotePort, seg.wireSize(), seg)
}

func (c *Conn) sendFlags(f segFlags) {
	seg := newSegment(c.cfg.Pools)
	seg.flags = f
	if f&flagSYN != 0 && f&flagACK == 0 {
		// Initial SYN carries no ACK.
		c.stats.SegsSent++
		c.route.Send(c.localPort, c.remotePort, seg.wireSize(), seg)
		return
	}
	c.sendSeg(seg)
}

func (c *Conn) handleSegment(seg *segment) {
	if c.state == stateClosed {
		return
	}
	c.stats.SegsReceived++

	if seg.flags&flagRST != 0 {
		c.fail(ErrAborted)
		return
	}

	switch c.state {
	case stateSynSent:
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK {
			c.state = stateEstablished
			c.cfg.Trace.TCPEstablished(c.sched.Now(), c.traceID, true)
			if !c.synRetrans {
				c.rttSample(c.sched.Now() - c.synSentAt)
			}
			c.noteRecovered()
			c.rtoTimer.Stop()
			c.sendFlags(flagACK)
			if c.onEstablished != nil {
				c.onEstablished()
			}
			c.trySend()
		}
		return
	case stateSynRcvd:
		if seg.flags&flagACK != 0 && seg.flags&flagSYN == 0 {
			c.state = stateEstablished
			c.cfg.Trace.TCPEstablished(c.sched.Now(), c.traceID, false)
			c.noteRecovered()
			c.rtoTimer.Stop()
			if !c.synRetrans {
				c.rttSample(c.sched.Now() - c.synSentAt)
			}
			if c.onEstablished != nil {
				c.onEstablished()
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

// --- sender ---

func (c *Conn) flight() uint64 { return c.sndNxt - c.sndUna }

func (c *Conn) trySend() {
	if c.state != stateEstablished {
		return
	}
	if c.cwnd > maxCwndSegs*mss {
		c.cwnd = maxCwndSegs * mss
	}
	for {
		if float64(c.flight()) >= c.cwnd {
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
				c.cwnd = c.ssthresh
				c.dupAcks = 0
				c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.cwnd), int(c.ssthresh), trace.CwndRecoveryExit)
			} else {
				// Partial ACK (NewReno): retransmit next hole,
				// deflate by amount acked, inflate by one MSS.
				c.retransmitFirst()
				c.cwnd -= float64(acked)
				if c.cwnd < mss {
					c.cwnd = mss
				}
				c.cwnd += mss
			}
		} else {
			c.dupAcks = 0
			if c.cwnd < c.ssthresh {
				c.cwnd += mss // slow start
			} else {
				c.cwnd += mss * mss / c.cwnd // congestion avoidance
			}
		}
	case seg.ack == c.sndUna && c.flight() > 0 && len(seg.payload) == 0 && seg.flags&(flagSYN|flagFIN) == 0:
		c.stats.DupAcksSeen++
		c.dupAcks++
		switch {
		case c.inRecovery:
			c.cwnd += mss // window inflation
		case c.dupAcks == 3:
			c.stats.FastRetransmits++
			if c.cfg.Recovery != nil {
				c.cfg.Recovery.FastRetransmits++
			}
			c.cfg.Trace.TCPFastRetransmit(c.sched.Now(), c.traceID, int64(c.sndUna))
			c.enterRecovery()
		}
	}
}

func (c *Conn) enterRecovery() {
	half := float64(c.flight()) / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.recover = c.sndNxt
	c.inRecovery = true
	c.retransmitFirst()
	c.cwnd = c.ssthresh + 3*mss
	c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.cwnd), int(c.ssthresh), trace.CwndFastRecovery)
}

// noteRecovered records forward progress (a valid ACK or handshake
// completion) after consecutive RTO fires. Two or more fires before the
// peer answered mark the episode as an outage crossing: the connection
// survived a blackout instead of isolated loss. The backed-off RTO is
// intentionally kept (Karn) — the next valid RTT sample fully re-seeds
// it from srtt + 4·rttvar in rttSample.
func (c *Conn) noteRecovered() {
	if c.retries >= 2 && c.cfg.Recovery != nil {
		c.cfg.Recovery.OutageCrossings++
	}
	c.retries = 0
}

func (c *Conn) retransmitFirst() {
	c.stats.Retransmits++
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
	c.stats.Timeouts++
	if c.cfg.Recovery != nil {
		c.cfg.Recovery.Timeouts++
	}
	c.cfg.Trace.TCPRTOFire(c.sched.Now(), c.traceID, c.retries, c.rto)
	c.rto *= 2
	if c.rto > rtoMax {
		c.rto = rtoMax
	}

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
		half := float64(c.flight()) / 2
		if half < 2*mss {
			half = 2 * mss
		}
		c.ssthresh = half
		c.cwnd = mss
		c.inRecovery = false
		c.dupAcks = 0
		c.cfg.Trace.TCPCwndChange(c.sched.Now(), c.traceID, int(c.cwnd), int(c.ssthresh), trace.CwndRTOCollapse)
		c.retransmitFirst()
	}
}

func (c *Conn) rttSample(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if !c.hasRTT {
		c.hasRTT = true
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < rtoMin {
		rto = rtoMin
	}
	if rto > rtoMax {
		rto = rtoMax
	}
	c.rto = rto
}

// --- receiver ---

func (c *Conn) processData(seg *segment) {
	if seg.end() <= c.rcvNxt {
		// Fully duplicate; re-ACK so the sender advances.
		c.sendFlags(flagACK)
		return
	}
	payload := seg.payload
	start := seg.seq
	if start < c.rcvNxt {
		payload = payload[c.rcvNxt-start:]
		start = c.rcvNxt
	}
	fin := seg.flags&flagFIN != 0
	if start == c.rcvNxt && !fin {
		// In order: every buffered chunk starts above rcvNxt, so this is
		// the chunk the gap scan would pick first and deliver whole.
		// Hand the payload over as it is, with no copy. The segment owns
		// it, and the network releases the segment only after this
		// handler returns.
		c.deliver(payload)
	} else if prev, found := c.recvBuf.Slot(start); !found || len(payload) > len(prev.data) || fin {
		buf := c.cfg.Arena.Get(len(payload))
		copy(buf, payload)
		if found {
			c.cfg.Arena.Put(prev.data)
		}
		*prev = recvChunk{data: buf, fin: fin}
	}
	c.advanceReceive()
	// HOL-stall bookkeeping: data buffered beyond a sequence gap means
	// the application is head-of-line blocked. Tracer-gated — the state
	// is only read here, so an untraced connection skips it entirely.
	if c.cfg.Trace != nil {
		switch {
		case !c.holActive && c.recvBuf.Len() > 0:
			c.holActive = true
			c.holStart = c.sched.Now()
			buffered := 0
			c.recvBuf.Each(func(_ uint64, chunk recvChunk) { buffered += len(chunk.data) })
			c.cfg.Trace.TCPHolStart(c.holStart, c.traceID, buffered)
		case c.holActive && c.recvBuf.Len() == 0:
			c.holActive = false
			now := c.sched.Now()
			c.cfg.Trace.TCPHolEnd(now, c.traceID, now-c.holStart)
		}
	}
	c.sendFlags(flagACK)
}

// deliver hands the in-order bytes at rcvNxt to the application.
func (c *Conn) deliver(data []byte) {
	c.rcvNxt += uint64(len(data))
	c.stats.BytesDelivered += int64(len(data))
	if c.dataFn != nil {
		c.dataFn(data)
	}
}

// advanceReceive drains the gap buffer up to the first hole. It takes the
// LOWEST chunk at or below rcvNxt each time: with reordering in the path,
// retransmission trimming can leave several overlapping chunks there,
// and the choice decides delivery granularity. A chunk is popped before
// its callback runs, so a teardown inside the callback never sees it.
func (c *Conn) advanceReceive() {
	for {
		start, chunk, ok := c.recvBuf.Head()
		if !ok || start > c.rcvNxt {
			return
		}
		c.recvBuf.Pop()
		end := start + uint64(len(chunk.data))
		if end > c.rcvNxt || (chunk.fin && !c.peerEOF && end == c.rcvNxt) {
			if data := chunk.data[c.rcvNxt-start:]; len(data) > 0 {
				c.deliver(data)
			}
			c.cfg.Arena.Put(chunk.data)
			if chunk.fin {
				c.rcvNxt++ // consume the FIN offset
				c.peerEOF = true
			}
			continue
		}
		c.cfg.Arena.Put(chunk.data) // stale duplicate
	}
}

// maybeFinish completes teardown once both directions are done.
func (c *Conn) maybeFinish() {
	if c.state != stateEstablished {
		return
	}
	if c.peerEOF && !c.finRcvd {
		c.finRcvd = true
		// Passive close: reply with our own FIN once the app closes;
		// deliver EOF now.
		c.deliverClose(nil)
	}
	if c.finAcked && c.peerEOF {
		c.teardown()
	}
}
