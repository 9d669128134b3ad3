package simnet

import (
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

func impairPath(im *Impairment) PathFunc {
	return func(src, dst Addr) PathProps {
		return PathProps{Delay: time.Millisecond, Impair: im}
	}
}

// TestGilbertElliottMatchedAverage checks that the matched-average
// construction actually delivers the requested long-run loss rate and
// mean burst length.
func TestGilbertElliottMatchedAverage(t *testing.T) {
	const avg, burst = 0.02, 4.0
	im := GilbertElliott(avg, burst)
	var s Scheduler
	n := NewNetwork(&s, impairPath(&im), seqrand.New(11))
	a := n.AddHost("a")
	b := n.AddHost("b")
	delivered := 0
	if err := b.Bind(80, func(Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	const total = 200_000
	for i := 0; i < total; i++ {
		a.Send(1, "b", 80, 100, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.BurstDrops != int64(total-delivered) {
		t.Fatalf("BurstDrops = %d, delivered = %d, total = %d", st.BurstDrops, delivered, total)
	}
	rate := float64(st.BurstDrops) / total
	if rate < avg*0.85 || rate > avg*1.15 {
		t.Fatalf("observed loss %.4f, want ≈ %.4f", rate, avg)
	}
	// Mean burst length: with LossBad=1 and PBadGood=1/burst, consecutive
	// drops average `burst`. Reconstruct burst count from the chain
	// parameters: bursts ≈ drops / meanLen.
	if st.LossDrops != 0 || st.OutageDrops != 0 {
		t.Fatalf("unexpected non-GE drops: %+v", st)
	}
}

// TestGilbertElliottBurstLength drives the chain directly (single path,
// sequential sends) and measures consecutive-drop run lengths.
func TestGilbertElliottBurstLength(t *testing.T) {
	const avg, burst = 0.05, 5.0
	im := GilbertElliott(avg, burst)
	var s Scheduler
	n := NewNetwork(&s, impairPath(&im), seqrand.New(3))
	a := n.AddHost("a")
	b := n.AddHost("b")

	// Track pattern of delivery per send by running one packet at a time.
	var runs []int
	cur := 0
	got := false
	if err := b.Bind(80, func(Packet) { got = true }); err != nil {
		t.Fatal(err)
	}
	const total = 100_000
	for i := 0; i < total; i++ {
		got = false
		a.Send(1, "b", 80, 100, nil)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got {
			if cur > 0 {
				runs = append(runs, cur)
				cur = 0
			}
		} else {
			cur++
		}
	}
	if len(runs) == 0 {
		t.Fatal("no loss bursts observed")
	}
	sum := 0
	for _, r := range runs {
		sum += r
	}
	mean := float64(sum) / float64(len(runs))
	if mean < burst*0.8 || mean > burst*1.2 {
		t.Fatalf("mean burst length %.2f over %d bursts, want ≈ %.1f", mean, len(runs), burst)
	}
}

// TestImpairmentDeterminism runs the same impaired traffic twice and
// expects identical delivery timestamps: all fault randomness derives
// from the seeded stream hierarchy, never from host entropy or map
// iteration.
func TestImpairmentDeterminism(t *testing.T) {
	run := func() []time.Duration {
		im := GilbertElliott(0.05, 3)
		im.JitterMax = 2 * time.Millisecond
		im.ReorderRate = 0.1
		im.ReorderDelay = 500 * time.Microsecond
		var s Scheduler
		n := NewNetwork(&s, impairPath(&im), seqrand.New(42))
		a := n.AddHost("a")
		b := n.AddHost("b")
		var arrivals []time.Duration
		if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			a.Send(1, "b", 80, 100, nil)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("delivery counts differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestJitterBounds checks every delivery lands within [Delay, Delay+JitterMax).
func TestJitterBounds(t *testing.T) {
	im := &Impairment{JitterMax: 3 * time.Millisecond}
	var s Scheduler
	n := NewNetwork(&s, impairPath(im), seqrand.New(9))
	a := n.AddHost("a")
	b := n.AddHost("b")
	var arrivals []time.Duration
	if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	const total = 500
	var sendTimes []time.Duration
	for i := 0; i < total; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		sendTimes = append(sendTimes, at)
		s.At(at, func() { a.Send(1, "b", 80, 100, nil) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != total {
		t.Fatalf("delivered %d, want %d (jitter must not drop)", len(arrivals), total)
	}
	varied := false
	for i, at := range arrivals {
		lat := at - sendTimes[i]
		if lat < time.Millisecond || lat >= 4*time.Millisecond {
			t.Fatalf("latency %v outside [1ms, 4ms)", lat)
		}
		if lat != time.Millisecond {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never moved an arrival")
	}
}

// TestReordering checks that held-back packets let later sends overtake
// them, and that reordering never loses a packet.
func TestReordering(t *testing.T) {
	im := &Impairment{ReorderRate: 0.3, ReorderDelay: 5 * time.Millisecond}
	var s Scheduler
	n := NewNetwork(&s, impairPath(im), seqrand.New(5))
	a := n.AddHost("a")
	b := n.AddHost("b")
	var order []int
	if err := b.Bind(80, func(p Packet) { order = append(order, p.Payload.(int)) }); err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		i := i
		s.At(time.Duration(i)*time.Millisecond, func() { a.Send(1, "b", 80, 100, i) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != total {
		t.Fatalf("delivered %d, want %d", len(order), total)
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed")
	}
	if n.Stats().Reordered == 0 {
		t.Fatal("Reordered counter stayed zero")
	}
}

// countedPayload asserts exactly-once release of pooled payloads.
type countedPayload struct {
	released *int
	t        *testing.T
	freed    bool
}

func (c *countedPayload) Release() {
	if c.freed {
		c.t.Fatal("payload released twice")
	}
	c.freed = true
	*c.released++
}

// TestOutageDropReleasesOnce covers the satellite-3 audit: packets sent
// into an outage window consume their serialization slot (busyUntil and
// inFlight accounting identical to ambient loss drops) and release
// pooled payloads exactly once via the shared drop path.
func TestOutageDropReleasesOnce(t *testing.T) {
	im := &Impairment{Outages: []Outage{{Start: 10 * time.Millisecond, End: 30 * time.Millisecond}}}
	pf := func(src, dst Addr) PathProps {
		return PathProps{Delay: time.Millisecond, BandwidthBps: 8_000_000, QueueLimit: 64, Impair: im}
	}
	var s Scheduler
	n := NewNetwork(&s, pf, seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	delivered := 0
	if err := b.Bind(80, func(Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	released := 0
	const total = 40
	for i := 0; i < total; i++ {
		at := time.Duration(i) * time.Millisecond // spans the window
		s.At(at, func() {
			a.Send(1, "b", 80, 100, &countedPayload{released: &released, t: t})
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.OutageDrops == 0 {
		t.Fatal("no outage drops in a send burst spanning the window")
	}
	if delivered+int(st.OutageDrops) != total {
		t.Fatalf("delivered %d + outage %d != %d", delivered, st.OutageDrops, total)
	}
	if released != total {
		t.Fatalf("released %d payloads, want %d (exactly once each)", released, total)
	}
	// Queue occupancy must fully drain: every drop decremented inFlight.
	ps := n.pairState("a", "b", "")
	if ps.inFlight != 0 {
		t.Fatalf("inFlight = %d after drain, want 0", ps.inFlight)
	}
}

// TestOutageWindowBoundaries pins the [Start, End) semantics.
func TestOutageWindowBoundaries(t *testing.T) {
	im := &Impairment{Outages: []Outage{{Start: 10 * time.Millisecond, End: 20 * time.Millisecond}}}
	var s Scheduler
	n := NewNetwork(&s, impairPath(im), seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	delivered := map[time.Duration]bool{}
	if err := b.Bind(80, func(p Packet) { delivered[p.Payload.(time.Duration)] = true }); err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{9 * time.Millisecond, 10 * time.Millisecond, 19 * time.Millisecond, 20 * time.Millisecond} {
		at := at
		s.At(at, func() { a.Send(1, "b", 80, 100, at) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[time.Duration]bool{9 * time.Millisecond: true, 20 * time.Millisecond: true}
	for _, at := range []time.Duration{9 * time.Millisecond, 10 * time.Millisecond, 19 * time.Millisecond, 20 * time.Millisecond} {
		if delivered[at] != want[at] {
			t.Fatalf("packet sent at %v: delivered=%v, want %v", at, delivered[at], want[at])
		}
	}
}

// TestUnimpairedPathDrawsNothing guards the zero-impairment fast path:
// a path with a nil Impairment never derives an impairment stream, so
// the ambient loss sequence is bit-identical to a build without the
// fault layer.
func TestUnimpairedPathDrawsNothing(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 0, 0.1), seqrand.New(4))
	a := n.AddHost("a")
	b := n.AddHost("b")
	if err := b.Bind(80, func(Packet) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a.Send(1, "b", 80, 100, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ps := n.pairState("a", "b", ""); ps.impairRng != nil {
		t.Fatal("impairment RNG created on an unimpaired path")
	}
}

// FuzzParseOutages: an accepted -outage spec yields windows in time
// order, each 0 ≤ Start < End and none overlapping the one before.
func FuzzParseOutages(f *testing.F) {
	for _, s := range []string{"", "2s-4s", "2s-4s,10s-11s", "10s-11s,2s-4s", "1s-3s,2s-4s", "4s-2s", "0-1ms", "+1s-2s", " 1s-2s , 2s-3s ", "1s--2s", "x-y", "1s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		windows, err := ParseOutages(spec)
		if err != nil {
			return
		}
		for i, w := range windows {
			if w.Start < 0 || w.Start >= w.End {
				t.Fatalf("ParseOutages(%q): window %d is [%v, %v)", spec, i, w.Start, w.End)
			}
			if i > 0 && w.Start < windows[i-1].End {
				t.Fatalf("ParseOutages(%q): window %d starts at %v, before window %d ends at %v", spec, i, w.Start, i-1, windows[i-1].End)
			}
		}
	})
}
