package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/trace"
)

// Addr identifies a host on the simulated network.
type Addr string

// Packet is a datagram as a handler or a filter sees it: where it came
// from, its on-wire size in bytes (what bandwidth serialization charges)
// and its payload, an opaque protocol message (e.g. a TCP segment or QUIC
// packet).
type Packet struct {
	Src     Addr
	SrcPort uint16
	Size    int
	Payload any
}

// Releasable is optionally implemented by packet payloads that can be
// recycled. Ownership of the payload transfers to the network at send
// time: once the packet has been delivered (the handler returned) or
// dropped, the network calls Release exactly once. Handlers must not
// retain the payload object beyond the callback, nor byte slices it
// points to: a TCP segment's or QUIC packet's payload goes back with it.
type Releasable interface{ Release() }

func releasePayload(p any) {
	if r, ok := p.(Releasable); ok {
		r.Release()
	}
}

// PathProps describes a directed src→dst path.
type PathProps struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// BandwidthBps is the serialization rate in bits per second.
	// Zero means infinite (no serialization delay).
	BandwidthBps float64
	// LossRate is the i.i.d. Bernoulli drop probability in [0,1).
	LossRate float64
	// QueueLimit bounds packets concurrently serialized/queued on the
	// path; beyond it packets are tail-dropped. Zero means unbounded.
	QueueLimit int
	// LinkID, when non-empty, names a shared link: all paths carrying
	// the same LinkID serialize through one transmission queue (e.g. a
	// client's access link shared by all its downloads). Empty keeps
	// per-(src,dst)-pair serialization.
	LinkID string
	// Impair, when non-nil, applies the fault-injection layer (bursty
	// loss, jitter, reordering, outages) on top of LossRate. The struct
	// must be read-only; per-path mutable state lives in the network.
	Impair *Impairment
	// Trace, when non-nil, replaces BandwidthBps with trace-driven
	// time-varying capacity (see TraceLink). Serialization integrates
	// the capacity profile; zero-capacity epochs stall the queue rather
	// than dropping. Composes with Impair: capacity first, then the
	// fault dice. The TraceLink must be read-only (shareable across
	// paths and workers).
	Trace *TraceLink
}

// PathFunc resolves the directed path properties between two hosts. A
// Network calls it once per directed (src, dst) pair, when the pair's
// Route is first resolved, and reuses the answer for every later packet
// on that pair. It must therefore be pure: a function of its arguments
// and of state fixed before the pair's first packet.
type PathFunc func(src, dst Addr) PathProps

// Stats counts network-level activity for a Network.
type Stats struct {
	Sent        int64
	Delivered   int64
	LossDrops   int64
	QueueDrops  int64
	BurstDrops  int64 // Gilbert–Elliott (impairment) drops
	OutageDrops int64 // scheduled-outage drops
	Reordered   int64 // deliveries held back by the reordering impairment
	NoRoute     int64 // destination host or port not bound
	BytesSent   int64
}

// Network connects hosts over paths resolved by a PathFunc.
type Network struct {
	sched  *Scheduler
	path   PathFunc
	hosts  map[Addr]*Host
	pairs  map[pairKey]*pathState
	routes map[routeKey]*Route
	rng    *seqrand.Source
	stats  Stats
	filter func(Packet) bool
	trace  *trace.Tracer

	freeDeliveries *delivery // recycled delivery records
}

// delivery is the scheduled arrival (or loss completion) of one packet:
// the one record a packet in flight costs. It carries its own (at, seq)
// key and waits on its route's arrive or drop FIFO; the route supplies
// the addresses. Records are pooled per network so the per-packet hot
// path schedules no closures and allocates nothing in steady state.
type delivery struct {
	at               time.Duration
	seq              uint64
	q                *fifo
	payload          any
	size             int
	srcPort, dstPort uint16
	next             *delivery // FIFO link while queued; free-list link after
}

// A fifo is one of a route's two completion queues. Successive sends on
// one pair serialize in order (busyUntil is monotone) and share one
// propagation delay, so each queue's times are nondecreasing and the
// queue owns a single heap event keyed by its head: dispatching the
// head re-keys that event to the next head in place. Each delivery's key
// is assigned at enqueue, so ordering against every other event (and
// FIFO ties) is byte-identical to giving each packet its own event.
type fifo struct {
	ev         event // in the heap iff head != nil
	r          *Route
	drop       bool // loss completions: only the serialization slot is released
	head, tail *delivery
}

func (q *fifo) init(r *Route, drop bool) {
	q.r, q.drop = r, drop
	q.ev = event{fn: runFIFO, arg: q, index: -1, kind: fifoEvent}
}

// push schedules d's completion at t (clamped to now). A delivery out
// of order with the tail — one sent after a reorder-held packet and
// overtaking it — gets a standalone event with its own key instead.
func (q *fifo) push(d *delivery, t time.Duration) {
	s := q.r.n.sched
	d.at, d.seq = s.key(t)
	d.q = q
	switch {
	case q.tail == nil:
		s.live++
		q.head, q.tail = d, d
		q.ev.at, q.ev.seq = d.at, d.seq
		s.push(&q.ev)
	case d.at >= q.tail.at:
		s.live++
		q.tail.next = d
		q.tail = d
	default:
		s.pushPooled(d.at, d.seq, runHeld, d)
	}
}

// runFIFO is the event callback of a route FIFO: it re-keys the
// queue's event (still the heap top) to the next head, then completes
// the old head.
func runFIFO(x any) {
	q := x.(*fifo)
	d := q.head
	s := q.r.n.sched
	if q.head = d.next; q.head != nil {
		d.next = nil
		s.rekeyTop(q.head.at, q.head.seq)
	} else {
		q.tail = nil
		s.remove(0)
	}
	q.complete(d)
}

// runHeld is the event callback of a delivery that overtook its FIFO.
func runHeld(x any) {
	d := x.(*delivery)
	d.q.complete(d)
}

func (q *fifo) complete(d *delivery) {
	r := q.r
	r.ps.inFlight--
	if q.drop {
		releasePayload(d.payload)
	} else {
		r.deliver(d)
	}
	r.n.releaseDelivery(d)
}

func (n *Network) allocDelivery() *delivery {
	d := n.freeDeliveries
	if d == nil {
		return &delivery{}
	}
	n.freeDeliveries = d.next
	d.next = nil
	return d
}

func (n *Network) releaseDelivery(d *delivery) {
	*d = delivery{next: n.freeDeliveries}
	n.freeDeliveries = d
}

// SetFilter installs a packet filter invoked before every transmission;
// returning false drops the packet (counted as a loss drop). Intended for
// tests and fault injection. Pass nil to remove.
func (n *Network) SetFilter(f func(Packet) bool) { n.filter = f }

// SetTracer installs the event tracer packet-level events are emitted
// to. All emit paths are nil-safe, so an untraced network pays only a
// nil compare per packet.
func (n *Network) SetTracer(t *trace.Tracer) { n.trace = t }

type pairKey struct {
	src, dst Addr
	link     string
}

type pathState struct {
	busyUntil time.Duration
	inFlight  int
	lossRng   *rand.Rand
	label     string // stream label, for lazily derived impairment RNG

	// Fault-injection state (see Impairment). impairRng is derived on
	// the first impaired send; unimpaired paths never create it, keeping
	// the fast path identical to a network without the fault layer.
	impairRng *rand.Rand
	geBad     bool // Gilbert–Elliott chain position

	// epoch is the last trace-link epoch a send on this path observed
	// (see TraceLink.Epoch); transitions emit a trace event. -1 until
	// the first trace-driven send.
	epoch int64
}

// A Route is one directed (src, dst) pair of a Network, resolved once
// on first use and then reused for every packet on the pair. It caches
// everything about the pair that is fixed for its lifetime — the
// PathFunc's answer, the serialization state (shared with every pair on
// the same LinkID), the destination host — so sending and delivering a
// packet does no address-keyed lookup.
//
// Completions wait on the route's two FIFOs (see fifo), so the whole
// pair occupies at most two heap slots instead of one per packet in
// flight. Arrivals (serialization end + propagation delay) and loss
// completions (serialization end only) follow different time laws, so
// each needs its own monotone queue. The queues are per pair even on a
// shared link: packets from different sources carry different
// propagation delays.
type Route struct {
	n        *Network
	src, dst Addr
	props    PathProps
	ps       *pathState
	// host is the destination, cached on the first delivery that finds
	// it: a lazily instantiated server's host may be added after a route
	// to it was resolved, and until then deliveries count NoRoute.
	host *Host
	// handler is what the last delivery found bound at port on host,
	// valid while host's binding generation is still gen.
	handler PacketHandler
	port    uint16
	gen     uint32

	arrive fifo
	drop   fifo
	// frontier is the latest scheduled arrival among FIFO deliveries on
	// this pair: the link preserves order, so a jittered packet is
	// delayed, never overtaken past — every delivery clamps to at least
	// the frontier, and only packets explicitly held back by the
	// reordering impairment leave it unadvanced (they alone may be
	// overtaken by later sends). On unimpaired paths arrivals are
	// already monotone and the clamp is a no-op.
	frontier time.Duration
}

type routeKey struct {
	src, dst Addr
}

// route returns the src→dst route, resolving it on first use.
func (n *Network) route(src, dst Addr) *Route {
	if r, ok := n.routes[routeKey{src, dst}]; ok {
		return r
	}
	props := n.path(src, dst)
	r := &Route{n: n, src: src, dst: dst, props: props, ps: n.pairState(src, dst, props.LinkID)}
	r.arrive.init(r, false)
	r.drop.init(r, true)
	n.routes[routeKey{src, dst}] = r
	return r
}

// NewNetwork creates a network driven by sched with paths from path and
// loss randomness derived from rng.
func NewNetwork(sched *Scheduler, path PathFunc, rng *seqrand.Source) *Network {
	if path == nil {
		path = func(Addr, Addr) PathProps { return PathProps{} }
	}
	return &Network{
		sched:  sched,
		path:   path,
		hosts:  make(map[Addr]*Host),
		pairs:  make(map[pairKey]*pathState),
		routes: make(map[routeKey]*Route),
		rng:    rng,
	}
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats { return n.stats }

// AddHost registers a host at addr. It panics on duplicate addresses:
// topology construction bugs should fail loudly at setup time.
func (n *Network) AddHost(addr Addr) *Host {
	if _, ok := n.hosts[addr]; ok {
		panic(fmt.Sprintf("simnet: duplicate host %q", addr))
	}
	h := &Host{
		net:   n,
		addr:  addr,
		ports: make(map[uint16]PacketHandler),
		// Ephemeral range start; deterministic across runs.
		nextEphemeral: ephemeralFirst,
	}
	n.hosts[addr] = h
	return h
}

// Host returns the host at addr, or nil.
func (n *Network) Host(addr Addr) *Host { return n.hosts[addr] }

func (n *Network) pairState(src, dst Addr, link string) *pathState {
	k := pairKey{link: link}
	if link == "" {
		k.src, k.dst = src, dst
	}
	ps, ok := n.pairs[k]
	if !ok {
		label := link
		if label == "" {
			label = string(src) + "|" + string(dst)
		}
		ps = &pathState{lossRng: n.rng.Stream("loss", label), label: label, epoch: -1}
		n.pairs[k] = ps
	}
	return ps
}

// Send transmits a packet from srcPort to the route's destination at
// dstPort, applying serialization, queue, loss, and propagation.
// Ownership of payload passes to the network (see Releasable).
func (r *Route) Send(srcPort, dstPort uint16, size int, payload any) {
	n := r.n
	n.stats.Sent++
	n.stats.BytesSent += int64(size)
	n.trace.PacketSent(n.sched.Now(), string(r.src), string(r.dst), srcPort, dstPort, size)

	if n.filter != nil && !n.filter(Packet{Src: r.src, SrcPort: srcPort, Size: size, Payload: payload}) {
		n.stats.LossDrops++
		n.trace.PacketDropped(n.sched.Now(), string(r.src), string(r.dst), srcPort, dstPort, size, trace.DropFilter)
		releasePayload(payload)
		return
	}

	props, ps := &r.props, r.ps

	if props.QueueLimit > 0 && ps.inFlight >= props.QueueLimit {
		n.stats.QueueDrops++
		n.trace.PacketDropped(n.sched.Now(), string(r.src), string(r.dst), srcPort, dstPort, size, trace.DropQueue)
		releasePayload(payload)
		return
	}

	now := n.sched.Now()
	start := now
	if ps.busyUntil > start {
		start = ps.busyUntil
	}
	var tx time.Duration
	if props.Trace != nil {
		// Trace-driven capacity: serialization integrates the replayed
		// profile from start; zero-capacity epochs stall (tx stretches)
		// instead of dropping. Epoch transitions are observable in the
		// trace — with the queue depth at the transition — so phase
		// attribution can tell capacity stalls from loss stalls.
		if e := props.Trace.Epoch(start); e != ps.epoch {
			ps.epoch = e
			n.trace.LinkEpoch(now, string(r.src), string(r.dst), e, props.Trace.EpochBps(e), ps.inFlight)
		}
		tx = props.Trace.Serialize(start, int64(size)*8) - start
	} else if props.BandwidthBps > 0 {
		tx = time.Duration(float64(size*8) / props.BandwidthBps * float64(time.Second))
	}
	ps.busyUntil = start + tx
	ps.inFlight++

	d := n.allocDelivery()
	d.srcPort, d.dstPort, d.size, d.payload = srcPort, dstPort, size, payload

	// The impairment layer runs first (the path's condition evolves per
	// transmission attempt, independent of ambient loss); its randomness
	// comes from a separate stream, so unimpaired paths — and the whole
	// network when no Impairment is configured — draw the exact loss
	// sequence they always did.
	var (
		extra time.Duration
		held  bool
	)
	if props.Impair != nil {
		cause, delta, h := n.impair(ps, props.Impair, start)
		if cause != 0 {
			n.trace.PacketDropped(now, string(r.src), string(r.dst), srcPort, dstPort, size, cause)
			r.drop.push(d, start+tx)
			return
		}
		extra, held = delta, h
		if extra > 0 {
			n.trace.PacketDelayed(now, string(r.src), string(r.dst), extra)
		}
	}

	// Loss is evaluated per transmission attempt. Dropped packets still
	// consumed link time (they were serialized onto the wire).
	if props.LossRate > 0 && ps.lossRng.Float64() < props.LossRate {
		n.stats.LossDrops++
		n.trace.PacketDropped(now, string(r.src), string(r.dst), srcPort, dstPort, size, trace.DropLoss)
		r.drop.push(d, start+tx)
		return
	}

	// FIFO discipline: a link delays jittered packets, it does not let
	// them overtake earlier deliveries on the same (src,dst) pair — so
	// every arrival clamps to at least the pair's frontier. Only a
	// packet the reordering impairment explicitly held back leaves the
	// frontier unadvanced: later sends may overtake it, which is the
	// one sanctioned source of out-of-order delivery.
	at := start + tx + props.Delay + extra
	if at < r.frontier {
		at = r.frontier
	}
	if !held {
		r.frontier = at
	}
	r.arrive.push(d, at)
}

// impair applies the fault-injection layer to one transmission attempt
// starting serialization at start. A non-zero cause (trace.Drop*) means
// the packet is dropped (outage or Gilbert–Elliott loss); otherwise the
// returned duration is the extra delivery delay from jitter and
// reordering, and held reports whether the reordering impairment held
// the packet back (the caller then leaves the FIFO frontier unadvanced
// so later sends may overtake it). Dropped packets are scheduled by the
// caller on the same drop queue as ambient loss, so they consume their
// serialization slot and release pooled payloads exactly once.
func (n *Network) impair(ps *pathState, im *Impairment, start time.Duration) (cause int64, extra time.Duration, held bool) {
	if len(im.Outages) > 0 && im.down(start) {
		n.stats.OutageDrops++
		return trace.DropOutage, 0, false
	}
	if ps.impairRng == nil {
		ps.impairRng = n.rng.Stream("impair", ps.label)
	}
	if im.hasGE() {
		rate := im.LossGood
		if ps.geBad {
			rate = im.LossBad
		}
		drop := rate > 0 && (rate >= 1 || ps.impairRng.Float64() < rate)
		// State transition after the attempt's drop draw.
		if ps.geBad {
			if im.PBadGood > 0 && ps.impairRng.Float64() < im.PBadGood {
				ps.geBad = false
			}
		} else if im.PGoodBad > 0 && ps.impairRng.Float64() < im.PGoodBad {
			ps.geBad = true
		}
		if drop {
			n.stats.BurstDrops++
			return trace.DropBurst, 0, false
		}
	}
	if im.JitterMax > 0 {
		extra = time.Duration(ps.impairRng.Int63n(int64(im.JitterMax)))
	}
	if im.ReorderRate > 0 && ps.impairRng.Float64() < im.ReorderRate {
		n.stats.Reordered++
		extra += im.ReorderDelay
		held = true
	}
	return 0, extra, held
}

// deliver hands d's packet to the handler bound at its destination
// port. The handler the last delivery found is reused while the
// destination's bindings are unchanged, so a pair carrying one
// connection's packets looks up no port.
func (r *Route) deliver(d *delivery) {
	n := r.n
	h := r.host
	if h == nil {
		if h = n.hosts[r.dst]; h == nil {
			n.stats.NoRoute++
			releasePayload(d.payload)
			return
		}
		r.host = h
	}
	fn := r.handler
	if fn == nil || r.port != d.dstPort || r.gen != h.gen {
		var ok bool
		if fn, ok = h.ports[d.dstPort]; !ok {
			n.stats.NoRoute++
			releasePayload(d.payload)
			return
		}
		r.handler, r.port, r.gen = fn, d.dstPort, h.gen
	}
	n.stats.Delivered++
	n.trace.PacketArrived(n.sched.Now(), string(r.src), string(r.dst), d.srcPort, d.dstPort, d.size)
	fn(Packet{Src: r.src, SrcPort: d.srcPort, Size: d.size, Payload: d.payload})
	releasePayload(d.payload)
}
