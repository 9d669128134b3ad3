package simnet

import (
	"strings"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

func symPath(delay time.Duration, bps float64, loss float64) PathFunc {
	return func(src, dst Addr) PathProps {
		return PathProps{Delay: delay, BandwidthBps: bps, LossRate: loss}
	}
}

func TestDeliveryLatency(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(10*time.Millisecond, 0, 0), seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")

	var arrived time.Duration
	var got Packet
	if err := b.Bind(80, func(p Packet) { arrived = s.Now(); got = p }); err != nil {
		t.Fatal(err)
	}
	a.Send(1234, "b", 80, 100, "hello")
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != 10*time.Millisecond {
		t.Fatalf("arrival = %v, want 10ms", arrived)
	}
	if got.Payload != "hello" || got.Src != "a" || got.SrcPort != 1234 {
		t.Fatalf("packet = %+v", got)
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	var s Scheduler
	// 8000 bits/sec: a 100-byte (800-bit) packet takes 100ms to serialize.
	n := NewNetwork(&s, symPath(0, 8000, 0), seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")

	var arrivals []time.Duration
	if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	a.Send(1, "b", 80, 100, nil)
	a.Send(1, "b", 80, 100, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(arrivals))
	}
	if arrivals[0] != 100*time.Millisecond || arrivals[1] != 200*time.Millisecond {
		t.Fatalf("arrivals = %v, want [100ms 200ms]", arrivals)
	}
}

func TestLossRate(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 0, 0.3), seqrand.New(7))
	a := n.AddHost("a")
	b := n.AddHost("b")
	delivered := 0
	if err := b.Bind(80, func(Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const total = 5000
	for i := 0; i < total; i++ {
		a.Send(1, "b", 80, 100, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(delivered)/total
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss %f, want ~0.30", rate)
	}
	st := n.Stats()
	if int(st.LossDrops)+delivered != total {
		t.Fatalf("drops(%d)+delivered(%d) != %d", st.LossDrops, delivered, total)
	}
}

func TestLossDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		var s Scheduler
		n := NewNetwork(&s, symPath(time.Millisecond, 0, 0.5), seqrand.New(99))
		a := n.AddHost("a")
		b := n.AddHost("b")
		var got []int
		if err := b.Bind(80, func(p Packet) { got = append(got, p.Payload.(int)) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			a.Send(1, "b", 80, 50, i)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestQueueLimitDrops(t *testing.T) {
	var s Scheduler
	pf := func(src, dst Addr) PathProps {
		return PathProps{BandwidthBps: 8000, QueueLimit: 2}
	}
	n := NewNetwork(&s, pf, seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	delivered := 0
	if err := b.Bind(80, func(Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Send(1, "b", 80, 100, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (queue limit)", delivered)
	}
	if n.Stats().QueueDrops != 3 {
		t.Fatalf("queue drops = %d, want 3", n.Stats().QueueDrops)
	}
}

func TestNoRouteCounted(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 0, 0), seqrand.New(1))
	a := n.AddHost("a")
	n.AddHost("b") // no port bound
	a.Send(1, "b", 80, 10, nil)
	a.Send(1, "nowhere", 80, 10, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats().NoRoute != 2 {
		t.Fatalf("NoRoute = %d, want 2", n.Stats().NoRoute)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(0, 0, 0), seqrand.New(1))
	h := n.AddHost("h")
	seen := make(map[uint16]bool)
	for i := 0; i < 1000; i++ {
		p := h.BindEphemeral(func(Packet) {})
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestBindEphemeralPanicsWhenExhausted(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, nil, seqrand.New(1))
	h := n.AddHost("full")
	for range ephemeralPorts {
		h.BindEphemeral(func(Packet) {})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BindEphemeral returned with every ephemeral port bound")
		}
		if msg, _ := r.(string); !strings.Contains(msg, `"full"`) {
			t.Fatalf("panic %v does not name the host", r)
		}
	}()
	h.BindEphemeral(func(Packet) {})
}

func TestBindConflict(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(0, 0, 0), seqrand.New(1))
	h := n.AddHost("h")
	if err := h.Bind(443, func(Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.Bind(443, func(Packet) {}); err == nil {
		t.Fatal("double Bind succeeded")
	}
	h.Unbind(443)
	if err := h.Bind(443, func(Packet) {}); err != nil {
		t.Fatalf("rebind after Unbind: %v", err)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddHost did not panic")
		}
	}()
	var s Scheduler
	n := NewNetwork(&s, symPath(0, 0, 0), seqrand.New(1))
	n.AddHost("x")
	n.AddHost("x")
}

// TestRTT checks that the two directed routes of a pair carry their
// PathFunc delays.
func TestRTT(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(15*time.Millisecond, 0, 0), seqrand.New(1))
	a, b := n.AddHost("a"), n.AddHost("b")
	if got := a.Route("b").props.Delay + b.Route("a").props.Delay; got != 30*time.Millisecond {
		t.Fatalf("round-trip delay = %v, want 30ms", got)
	}
}

func TestSharedLinkSerialization(t *testing.T) {
	var s Scheduler
	// Two senders to one receiver share a 8000 bps access link: their
	// packets serialize through one queue.
	pf := func(src, dst Addr) PathProps {
		return PathProps{BandwidthBps: 8000, LinkID: "access:" + string(dst)}
	}
	n := NewNetwork(&s, pf, seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	c := n.AddHost("c")
	var arrivals []time.Duration
	if err := c.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	a.Send(1, "c", 80, 100, nil) // 100ms serialization each
	b.Send(1, "c", 80, 100, nil)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d", len(arrivals))
	}
	// Shared link: second packet waits for the first (100ms, 200ms),
	// unlike independent pairs which would both arrive at 100ms.
	if arrivals[0] != 100*time.Millisecond || arrivals[1] != 200*time.Millisecond {
		t.Fatalf("arrivals = %v, want [100ms 200ms]", arrivals)
	}
}
