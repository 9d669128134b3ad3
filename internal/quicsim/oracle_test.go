package quicsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// oracleConn is a connection wired to nothing, for driving the ACK and
// send-scheduling paths by hand.
func oracleConn() *Conn {
	sched := &simnet.Scheduler{MaxEvents: 1_000_000}
	net := simnet.NewNetwork(sched, nil, seqrand.New(1))
	return newConn(net.AddHost("h"), "", Config{Pools: &Pools{}, Recovery: &simnet.RecoveryStats{}})
}

// refHandleAck is handleAck as it was before the lockstep walk: every
// in-flight record tested against every range through a closure, one
// partition pass, and the lost prefix removed by copy. It runs on the
// live records as a plain slice and stores the survivors back.
func refHandleAck(c *Conn, ranges []pnRange) {
	sent := slices.Clone(c.sent.live())
	covered := func(pn uint64) bool {
		for _, r := range ranges {
			if r.lo <= pn && pn <= r.hi {
				return true
			}
		}
		return false
	}
	var largest *sentPacket
	keep := sent[:0]
	for _, sp := range sent {
		if !covered(sp.pn) {
			keep = append(keep, sp)
			continue
		}
		largest = sp
		c.bytesInFlight -= sp.size
		if w := &c.win; w.Cwnd < w.Ssthresh {
			w.Cwnd += float64(sp.size)
		} else {
			w.Cwnd += maxPacketPayload * float64(sp.size) / w.Cwnd
		}
		c.retireAcked(sp)
	}
	if largest == nil {
		return
	}
	sent = keep
	if c.win.Cwnd > 512*maxPacketPayload {
		c.win.Cwnd = 512 * maxPacketPayload
	}
	refRTTSample(c, c.sched.Now()-largest.sentAt)
	if c.ptoCount >= 2 && c.cfg.Recovery != nil {
		c.cfg.Recovery.OutageCrossings++
	}
	c.ptoCount = 0
	largestAcked := largest.pn
	lost := 0
	for lost < len(sent) && sent[lost].pn+reorderThreshold <= largestAcked {
		lost++
	}
	for _, sp := range sent[:lost] {
		c.bytesInFlight -= sp.size
		if c.cfg.Recovery != nil {
			c.cfg.Recovery.PacketsDeclaredLost++
		}
		c.sendQ = append(c.sendQ, sp.frames...)
		if sp.pn >= c.recoveryStart {
			w := &c.win
			w.Ssthresh = w.Cwnd / 2
			if min := float64(2 * maxPacketPayload); w.Ssthresh < min {
				w.Ssthresh = min
			}
			w.Cwnd = w.Ssthresh
			c.recoveryStart = c.nextPN
		}
		sp.frames = nil
		c.pools.sents.Put(sp)
	}
	n := copy(sent, sent[lost:])
	c.sent = sentList{s: sent[:n]}
	c.armPTO()
	c.trySend()
}

// refRTTSample is RFC 6298's estimator update, written out.
func refRTTSample(c *Conn, sample time.Duration) {
	r := &c.rtt
	if sample <= 0 {
		sample = time.Microsecond
	}
	if !r.Sampled {
		r.Sampled = true
		r.SRTT, r.RTTVar = sample, sample/2
		return
	}
	d := r.SRTT - sample
	if d < 0 {
		d = -d
	}
	r.RTTVar = (3*r.RTTVar + d) / 4
	r.SRTT = (7*r.SRTT + sample) / 8
}

// randomRanges returns up to 32 disjoint ranges below next, descending.
func randomRanges(rng *rand.Rand, next uint64) []pnRange {
	var rs []pnRange
	for lo := uint64(rng.Intn(8)); lo < next && len(rs) < 32; {
		hi := lo + uint64(rng.Intn(12))
		if hi >= next {
			hi = next - 1
		}
		rs = append(rs, pnRange{lo, hi})
		lo = hi + 2 + uint64(rng.Intn(6))
	}
	slices.Reverse(rs)
	return rs
}

// TestHandleAckMatchesReference gives the lockstep walk and the old
// closure scan the same in-flight sets and ACK frames — the peer's
// current ranges, stale (reordered) ones, and random disjoint sets — and
// requires the same retirement order, the same cwnd and ssthresh bits,
// bytes in flight, RTT state and lost prefix, step after step.
func TestHandleAckMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		a, b := oracleConn(), oracleConn()
		cwnd := float64(2400 + rng.Intn(600_000))
		ssthresh := float64(2400 + rng.Intn(600_000))
		for _, c := range []*Conn{a, b} {
			// Closed, so trySend sends nothing and the lost frames stay
			// on sendQ for comparison; handleAck itself ignores state.
			c.state = stateClosed
			c.win.Cwnd, c.win.Ssthresh = cwnd, ssthresh
		}
		var peer rangeSet
		var stale [][]pnRange
		lossRate := rng.Intn(6)
		for step := 0; step < 80; step++ {
			for k := rng.Intn(48); k > 0; k-- {
				pn := a.nextPN
				if rng.Intn(8) != 0 { // else an ACK-only packet, never in flight
					size := 100 + rng.Intn(maxPacketPayload+54)
					sentAt := -time.Duration(rng.Intn(300_000)) * time.Microsecond
					for _, c := range []*Conn{a, b} {
						c.sent.push(&sentPacket{pn: pn, size: size, sentAt: sentAt,
							frames: []frame{&clientHelloFrame{nonce: pn}}})
						c.bytesInFlight += size
					}
				}
				a.nextPN++
				b.nextPN++
				if rng.Intn(10) >= lossRate {
					peer.add(pn)
				}
			}
			var ranges []pnRange
			switch k := rng.Intn(10); {
			case k < 6:
				ranges = peer.snapshot(nil, 32)
				stale = append(stale, ranges)
			case k < 8 && len(stale) > 0:
				ranges = stale[rng.Intn(len(stale))]
			default:
				ranges = randomRanges(rng, a.nextPN)
			}
			pto := rng.Intn(4)
			a.ptoCount, b.ptoCount = pto, pto
			a.handleAck(slices.Clone(ranges))
			refHandleAck(b, slices.Clone(ranges))
			if diff := ackStateDiff(a, b); diff != "" {
				t.Fatalf("trial %d step %d, ranges %v: %s", trial, step, ranges, diff)
			}
		}
	}
}

// ackStateDiff names the first ACK-path state a and b disagree on.
func ackStateDiff(a, b *Conn) string {
	pns := func(sps []*sentPacket) []uint64 {
		out := make([]uint64, len(sps))
		for i, sp := range sps {
			out[i] = sp.pn
		}
		return out
	}
	queued := func(c *Conn) []uint64 {
		var out []uint64
		for _, f := range c.sendQ {
			out = append(out, f.(*clientHelloFrame).nonce)
		}
		return out
	}
	switch {
	case !slices.Equal(pns(a.pools.sents), pns(b.pools.sents)):
		return "retirement order differs"
	case !slices.Equal(pns(a.sent.live()), pns(b.sent.live())):
		return "packets left in flight differ"
	case !slices.Equal(queued(a), queued(b)):
		return "lost frames re-queued differ"
	case math.Float64bits(a.win.Cwnd) != math.Float64bits(b.win.Cwnd):
		return "cwnd differs"
	case math.Float64bits(a.win.Ssthresh) != math.Float64bits(b.win.Ssthresh):
		return "ssthresh differs"
	case a.bytesInFlight != b.bytesInFlight:
		return "bytesInFlight differs"
	case a.rtt.SRTT != b.rtt.SRTT || a.rtt.RTTVar != b.rtt.RTTVar || a.ptoCount != b.ptoCount:
		return "RTT or probe state differs"
	case a.recoveryStart != b.recoveryStart || *a.cfg.Recovery != *b.cfg.Recovery:
		return "recovery state or counters differ"
	}
	return ""
}

// refPull is pullStreamFrame as it was before the sendable list: a scan
// of every stream the connection ever opened, in opening order from
// rrIndex round. order holds their ids.
func refPull(c *Conn, order []uint64, rrIndex *int, maxData int) *streamFrame {
	n := len(order)
	for i := 0; i < n; i++ {
		idx := (*rrIndex + i) % n
		s := c.streams[order[idx]]
		avail := s.sendEnd - s.sendOff
		if avail == 0 && !(s.finQueued && !s.finSent) {
			continue
		}
		*rrIndex = (idx + 1) % n
		take := min(avail, uint64(maxData))
		sf := c.pools.newStreamFrame(s, s.sendOff, int(take))
		s.sendOff += take
		if s.finQueued && s.sendOff == s.sendEnd {
			sf.fin = true
			s.finSent = true
		}
		return sf
	}
	return nil
}

// TestPullStreamFrameMatchesScan runs the sendable-list round robin and
// the old scan side by side while streams open (locally and from the
// peer), take writes, close with and without data left, drain, and get
// fully acknowledged, and requires every pull to pick the same stream
// and bytes and leave the same rrIndex.
func TestPullStreamFrameMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26)) //nolint:gosec
	for trial := 0; trial < 200; trial++ {
		// A server conn still handshaking: Write's trySend builds no
		// stream frame, so every pull below is the test's.
		a, b := oracleConn(), oracleConn()
		var order []uint64
		rr := 0
		peerID := uint64(1 << 20)
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(20); {
			case k == 0 || len(order) == 0:
				id := a.OpenStream().ID()
				b.OpenStream()
				order = append(order, id)
			case k == 1:
				for _, c := range []*Conn{a, b} {
					c.handleStreamData(streamData{id: peerID})
				}
				order = append(order, peerID)
				peerID += 4
			case k < 7:
				id := order[rng.Intn(len(order))]
				p := patterned(rng.Intn(3000))
				a.streams[id].Write(p)
				b.streams[id].Write(p)
			case k == 7:
				id := order[rng.Intn(len(order))]
				a.streams[id].CloseWrite()
				b.streams[id].CloseWrite()
			case k == 8:
				id := order[rng.Intn(len(order))]
				for _, c := range []*Conn{a, b} {
					if s := c.streams[id]; s.finSent && !s.finAcked {
						s.frameAcked(int(s.sendEnd-s.acked), true)
					}
				}
			default:
				maxData := 1 + rng.Intn(maxPacketPayload)
				fa := a.pullStreamFrame(maxData)
				fb := refPull(b, order, &rr, maxData)
				if (fa == nil) != (fb == nil) {
					t.Fatalf("trial %d op %d: pulled %v, scan pulled %v", trial, op, fa, fb)
				}
				if fa != nil && (fa.s.id != fb.s.id || fa.off != fb.off || fa.fin != fb.fin || fa.n != fb.n) {
					t.Fatalf("trial %d op %d: pulled stream %d [%d+%d fin %v], scan pulled %d [%d+%d fin %v]",
						trial, op, fa.s.id, fa.off, fa.n, fa.fin, fb.s.id, fb.off, fb.n, fb.fin)
				}
				if a.rrIndex != rr {
					t.Fatalf("trial %d op %d: rrIndex %d, scan %d", trial, op, a.rrIndex, rr)
				}
			}
			for i, s := range a.sendable {
				if !s.hasSendable() || (i > 0 && a.sendable[i-1].order >= s.order) {
					t.Fatalf("trial %d op %d: sendable list out of order or stale at %d", trial, op, i)
				}
			}
			sendable := 0
			for _, s := range a.streams {
				if s.hasSendable() {
					sendable++
				}
			}
			if sendable != len(a.sendable) {
				t.Fatalf("trial %d op %d: %d streams have data to send, %d listed", trial, op, sendable, len(a.sendable))
			}
		}
	}
}

// TestPacketThresholdLoss acknowledges the packets after pn 0 one at a
// time. pn 0 must be declared lost exactly when the third packet number
// after it is acknowledged (RFC 9002 §6.1.1, kPacketThreshold 3), not
// before and not later, and its frames queued for retransmission.
func TestPacketThresholdLoss(t *testing.T) {
	c := oracleConn()
	// Closed, so trySend sends nothing and the lost frames stay on sendQ.
	c.state = stateClosed
	for ; c.nextPN < 6; c.nextPN++ {
		c.sent.push(&sentPacket{pn: c.nextPN, size: 1200, frames: []frame{&clientHelloFrame{nonce: c.nextPN}}})
		c.bytesInFlight += 1200
	}
	for largest := uint64(1); largest <= 5; largest++ {
		c.handleAck([]pnRange{{1, largest}})
		want := int64(0)
		if largest >= 3 {
			want = 1
		}
		if got := c.cfg.Recovery.PacketsDeclaredLost; got != want {
			t.Fatalf("pns 1..%d acknowledged: %d packets declared lost, want %d", largest, got, want)
		}
	}
	if len(c.sendQ) != 1 || c.sendQ[0].(*clientHelloFrame).nonce != 0 || len(c.sent.live()) != 0 {
		t.Fatalf("%d frames re-queued and %d packets in flight, want pn 0's one frame and none", len(c.sendQ), len(c.sent.live()))
	}
}
