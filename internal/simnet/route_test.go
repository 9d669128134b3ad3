package simnet

import (
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

// TestPathFuncResolvedOncePerPair pins the Route contract: the PathFunc
// runs once per directed pair however the pair's packets are sent, pairs
// on one LinkID share serialization state but not delivery queues, and a
// route resolved before its destination host exists counts NoRoute until
// the host is added.
func TestPathFuncResolvedOncePerPair(t *testing.T) {
	calls := map[routeKey]int{}
	pf := func(src, dst Addr) PathProps {
		calls[routeKey{src, dst}]++
		p := PathProps{Delay: time.Millisecond, BandwidthBps: 8e6}
		if dst == "c" {
			// a→c is far, b→c near, over one shared access link.
			p.LinkID = "access:c"
			if src == "a" {
				p.Delay = 10 * time.Millisecond
			}
		}
		return p
	}
	var s Scheduler
	n := NewNetwork(&s, pf, seqrand.New(1))
	a, b, c := n.AddHost("a"), n.AddHost("b"), n.AddHost("c")
	got := map[Addr]int{}
	for _, h := range []*Host{a, b, c} {
		h := h
		if err := h.Bind(80, func(Packet) { got[h.addr]++ }); err != nil {
			t.Fatal(err)
		}
	}

	// 1 000 packets each way, half through Host.Send, half through a
	// held route.
	ab, ba := a.Route("b"), b.Route("a")
	for i := 0; i < 500; i++ {
		a.Send(1, "b", 80, 100, nil)
		ab.Send(1, 80, 100, nil)
		b.Send(1, "a", 80, 100, nil)
		ba.Send(1, 80, 100, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1000 || got["b"] != 1000 {
		t.Fatalf("delivered a=%d b=%d, want 1000 each", got["a"], got["b"])
	}
	if a.Route("b") != ab {
		t.Fatal("a second Route call resolved a new route")
	}

	// Shared link: one pathState, two pairs of queues.
	ac, bc := a.Route("c"), b.Route("c")
	if ac.ps != bc.ps {
		t.Fatal("pairs on one LinkID do not share serialization state")
	}
	var arrivals []time.Duration
	if err := c.Bind(81, func(p Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	ac.Send(1, 81, 1000, nil) // 1ms on the wire
	if ac.ps.busyUntil != start+time.Millisecond {
		t.Fatalf("busyUntil = %v after a→c, want %v", ac.ps.busyUntil, start+time.Millisecond)
	}
	bc.Send(1, 81, 1000, nil)
	if bc.ps.busyUntil != start+2*time.Millisecond {
		t.Fatalf("busyUntil = %v after b→c, want %v (link shared)", bc.ps.busyUntil, start+2*time.Millisecond)
	}
	if ac.arrive.head == nil || bc.arrive.head == nil || ac.arrive.head == bc.arrive.head {
		t.Fatal("pairs on a shared link must keep their own arrival queues")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{start + 3*time.Millisecond, start + 11*time.Millisecond}; len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Fatalf("shared-link arrivals = %v, want %v", arrivals, want)
	}

	// A route to a host that does not exist yet.
	released := 0
	ad := a.Route("d")
	ad.Send(1, 80, 100, &countedPayload{released: &released, t: t})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.NoRoute != 1 || released != 1 {
		t.Fatalf("before AddHost: NoRoute = %d, released = %d, want 1 and 1", st.NoRoute, released)
	}
	d := n.AddHost("d")
	if err := d.Bind(80, func(Packet) { got["d"]++ }); err != nil {
		t.Fatal(err)
	}
	ad.Send(1, 80, 100, &countedPayload{released: &released, t: t})
	a.Send(1, "d", 80, 100, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got["d"] != 2 || released != 2 || n.Stats().NoRoute != 1 {
		t.Fatalf("after AddHost: delivered %d, released %d, NoRoute %d; want 2, 2, 1", got["d"], released, n.Stats().NoRoute)
	}

	if len(calls) != 5 {
		t.Fatalf("PathFunc saw %d pairs, want 5: %v", len(calls), calls)
	}
	for k, v := range calls {
		if v != 1 {
			t.Fatalf("PathFunc called %d times for %s→%s, want 1", v, k.src, k.dst)
		}
	}
}

// TestSendConservationAcrossRoutes drives eight pairs — four over one
// shared uplink — through every way a packet can end: bursty loss,
// jitter and reordering, ambient loss, a queue limit, an outage window, a
// filter, and an unbound port. After draining, every packet sent is
// accounted for by exactly one counter and every payload was released
// exactly once.
func TestSendConservationAcrossRoutes(t *testing.T) {
	im := GilbertElliott(0.02, 4)
	im.JitterMax = 2 * time.Millisecond
	im.ReorderRate = 0.01
	im.ReorderDelay = 2 * time.Millisecond
	im.Outages = []Outage{{Start: 50 * time.Millisecond, End: 80 * time.Millisecond}}
	pf := func(src, dst Addr) PathProps {
		p := PathProps{Delay: 5 * time.Millisecond, BandwidthBps: 10e6, LossRate: 0.01, QueueLimit: 16, Impair: &im}
		if src == "s0" || src == "s1" {
			p.LinkID = "uplink"
		}
		return p
	}
	var s Scheduler
	n := NewNetwork(&s, pf, seqrand.New(2022))
	seq := 0
	n.SetFilter(func(Packet) bool {
		seq++
		return seq%97 != 0
	})
	senders := []*Host{n.AddHost("s0"), n.AddHost("s1"), n.AddHost("s2"), n.AddHost("s3")}
	var routes []*Route
	delivered := 0
	for _, dst := range []Addr{"r0", "r1"} {
		if err := n.AddHost(dst).Bind(80, func(Packet) { delivered++ }); err != nil {
			t.Fatal(err)
		}
		for _, h := range senders {
			routes = append(routes, h.Route(dst))
		}
	}

	released := 0
	for tick := 0; tick < 200; tick++ {
		s.At(time.Duration(tick)*time.Millisecond, func() {
			for i, r := range routes {
				port := uint16(80)
				if tick%10 == i {
					port = 81 // unbound
				}
				for k := 0; k < 4; k++ {
					r.Send(1, port, 1200, &countedPayload{released: &released, t: t})
				}
				senders[i%len(senders)].Send(2, "r1", 80, 1200, &countedPayload{released: &released, t: t})
			}
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	st := n.Stats()
	if st.Sent != 200*int64(len(routes))*5 {
		t.Fatalf("Sent = %d, want %d", st.Sent, 200*len(routes)*5)
	}
	if got := st.Delivered + st.LossDrops + st.QueueDrops + st.BurstDrops + st.OutageDrops + st.NoRoute; got != st.Sent {
		t.Fatalf("conservation: sent %d, accounted %d (%+v)", st.Sent, got, st)
	}
	if int64(released) != st.Sent {
		t.Fatalf("released %d payloads, sent %d", released, st.Sent)
	}
	if int64(delivered) != st.Delivered {
		t.Fatalf("handlers saw %d packets, Delivered = %d", delivered, st.Delivered)
	}
	for name, v := range map[string]int64{
		"LossDrops": st.LossDrops, "QueueDrops": st.QueueDrops, "BurstDrops": st.BurstDrops,
		"OutageDrops": st.OutageDrops, "NoRoute": st.NoRoute, "Reordered": st.Reordered,
	} {
		if v == 0 {
			t.Errorf("%s = 0: the test no longer exercises that path", name)
		}
	}
	for _, r := range routes {
		if r.ps.inFlight != 0 {
			t.Fatalf("%s→%s: inFlight = %d after drain", r.src, r.dst, r.ps.inFlight)
		}
	}
}

// TestRouteHandlerInvalidatedByUnbind pins the route's cached demux: a
// route reuses the handler its last delivery found only while the
// destination's bindings are unchanged. After Unbind the next packet
// counts NoRoute and releases its payload; after a new Bind the new
// handler receives.
func TestRouteHandlerInvalidatedByUnbind(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 0, 0), seqrand.New(1))
	b := n.AddHost("b")
	r := n.AddHost("a").Route("b")
	gotA, gotB, released := 0, 0, 0
	send := func() {
		r.Send(1, 80, 100, &countedPayload{released: &released, t: t})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Bind(80, func(Packet) { gotA++ }); err != nil {
		t.Fatal(err)
	}
	send()
	send()
	if gotA != 2 {
		t.Fatalf("handler A saw %d packets, want 2", gotA)
	}
	b.Unbind(80)
	send()
	if st := n.Stats(); gotA != 2 || st.NoRoute != 1 || released != 3 {
		t.Fatalf("after Unbind: A saw %d, NoRoute %d, released %d; want 2, 1, 3", gotA, st.NoRoute, released)
	}
	if err := b.Bind(80, func(Packet) { gotB++ }); err != nil {
		t.Fatal(err)
	}
	send()
	if gotA != 2 || gotB != 1 || released != 4 {
		t.Fatalf("after Bind(B): A saw %d, B saw %d, released %d; want 2, 1, 4", gotA, gotB, released)
	}
}

// BenchmarkRouteSend measures the steady-state per-packet path a
// connection takes: Route.Send through serialization and the loss dice,
// then dispatch of the arrival to a bound handler. It must not allocate.
func BenchmarkRouteSend(b *testing.B) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 100e6, 0.003), seqrand.New(1))
	a := n.AddHost("a")
	if err := n.AddHost("b").Bind(80, func(Packet) {}); err != nil {
		b.Fatal(err)
	}
	r := a.Route("b")
	r.Send(1, 80, 1200, nil)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Send(1, 80, 1200, nil)
		s.Step()
	}
}
