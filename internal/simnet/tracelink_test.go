package simnet

import (
	"math"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

func mustTrace(t *testing.T, name string, samples []TraceSample) *TraceLink {
	t.Helper()
	tl, err := NewTraceLink(name, samples)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestNewTraceLinkValidation(t *testing.T) {
	cases := []struct {
		name    string
		samples []TraceSample
		wantErr bool
	}{
		{"empty", nil, true},
		{"zero-duration", []TraceSample{{0, 1e6}}, true},
		{"negative-rate", []TraceSample{{time.Second, -1}}, true},
		{"nan-rate", []TraceSample{{time.Second, math.NaN()}}, true},
		{"all-zero", []TraceSample{{time.Second, 0}, {time.Second, 0}}, true},
		{"ok", []TraceSample{{time.Second, 0}, {time.Second, 1e6}}, false},
	}
	for _, tc := range cases {
		_, err := NewTraceLink(tc.name, tc.samples)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestTraceLinkEpochs(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{
		{100 * time.Millisecond, 1e6},
		{200 * time.Millisecond, 2e6},
		{100 * time.Millisecond, 0},
	})
	if got := tl.Period(); got != 400*time.Millisecond {
		t.Fatalf("Period = %v", got)
	}
	if got := tl.Epochs(); got != 3 {
		t.Fatalf("Epochs = %d", got)
	}
	cases := []struct {
		at   time.Duration
		want int64
	}{
		{0, 0},
		{99 * time.Millisecond, 0},
		{100 * time.Millisecond, 1},
		{299 * time.Millisecond, 1},
		{300 * time.Millisecond, 2},
		{399 * time.Millisecond, 2},
		{400 * time.Millisecond, 3}, // wrapped: sample 0 of wrap 1
		{850 * time.Millisecond, 5}, // wrap 2, sample 2... check: 850 = 400*2+50 → wrap 2, sample 0 → 6
	}
	cases[len(cases)-1].want = 6
	for _, tc := range cases {
		if got := tl.Epoch(tc.at); got != tc.want {
			t.Errorf("Epoch(%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if got := tl.EpochBps(4); got != 2e6 {
		t.Fatalf("EpochBps(4) = %v, want 2e6 (wrapped sample 1)", got)
	}
	// Time-weighted mean: (1e6·0.1 + 2e6·0.2 + 0)/0.4 = 1.25e6.
	if got := tl.MeanBps(); math.Abs(got-1.25e6) > 1 {
		t.Fatalf("MeanBps = %v, want 1.25e6", got)
	}
}

func TestTraceLinkSerialize(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{
		{100 * time.Millisecond, 8e6}, // 1 KB/ms
		{100 * time.Millisecond, 0},   // dead zone
		{100 * time.Millisecond, 8e6},
	})
	// 8000 bits at 8e6 bps = 1ms, entirely inside epoch 0.
	if got := tl.Serialize(0, 8000); got != time.Millisecond {
		t.Fatalf("Serialize(0, 8000) = %v, want 1ms", got)
	}
	// Starting 0.5ms before the dead zone, half the bits drain before
	// 100ms, the rest wait out the zero-capacity epoch: finish at 200.5ms.
	start := 99*time.Millisecond + 500*time.Microsecond
	if got := tl.Serialize(start, 8000); got != 200*time.Millisecond+500*time.Microsecond {
		t.Fatalf("Serialize(dead-zone straddle) = %v", got)
	}
	// Starting inside the dead zone stalls until it ends.
	if got := tl.Serialize(150*time.Millisecond, 8000); got != 201*time.Millisecond {
		t.Fatalf("Serialize(in dead zone) = %v, want 201ms", got)
	}
	// Replay wraps: epoch 3 (= sample 0 of wrap 1) serves at 8e6 again.
	if got := tl.Serialize(300*time.Millisecond, 8000+800*1000); got <= 300*time.Millisecond {
		t.Fatalf("Serialize across wrap = %v", got)
	}
	// Constant-rate trace must agree with the closed form bits/bps.
	flat := mustTrace(t, "flat", []TraceSample{{time.Second, 1e6}})
	for _, bits := range []int64{1, 999, 1_000_000, 7_654_321} {
		want := time.Duration(float64(bits) / 1e6 * float64(time.Second))
		got := flat.Serialize(123*time.Millisecond, bits) - 123*time.Millisecond
		if d := got - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("flat Serialize(%d bits) = %v, want ≈%v", bits, got, want)
		}
	}
}

func TestTraceLinkSerializeMonotone(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{
		{50 * time.Millisecond, 2e6},
		{30 * time.Millisecond, 0},
		{70 * time.Millisecond, 12e6},
	})
	// Finish time must be nondecreasing in start time (later starts never
	// finish earlier) — this underpins the per-path FIFO invariant.
	prev := time.Duration(-1)
	for ms := 0; ms < 500; ms += 3 {
		got := tl.Serialize(time.Duration(ms)*time.Millisecond, 40_000)
		if got < prev {
			t.Fatalf("Serialize not monotone at %dms: %v < %v", ms, got, prev)
		}
		prev = got
	}
}

func TestTraceLinkScaled(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{{time.Second, 4e6}, {time.Second, 0}})
	s2, err := tl.Scaled(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.EpochBps(0); got != 2e6 {
		t.Fatalf("scaled rate = %v, want 2e6", got)
	}
	if same, err := tl.Scaled(1); err != nil || same != tl {
		t.Fatalf("Scaled(1) = %v, %v — want identity", same, err)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := tl.Scaled(bad); err == nil {
			t.Errorf("Scaled(%v): want error", bad)
		}
	}
}

func TestParseMahimahiTrace(t *testing.T) {
	// 3 opportunities in [0,100)ms, 1 in [100,200)ms, none afterwards
	// until one at 250ms.
	src := "# comment\n0\n10\n\n99\n150\n250\n"
	tl, err := ParseMahimahiTrace("m", strings.NewReader(src), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Epochs(); got != 3 {
		t.Fatalf("Epochs = %d, want 3", got)
	}
	// Bucket 0: 3 opportunities × 1500 B × 8 / 0.1s = 360 kbit/s.
	if got := tl.EpochBps(0); math.Abs(got-360e3) > 1 {
		t.Fatalf("bucket 0 rate = %v, want 360e3", got)
	}
	if got := tl.EpochBps(1); math.Abs(got-120e3) > 1 {
		t.Fatalf("bucket 1 rate = %v, want 120e3", got)
	}

	for name, bad := range map[string]string{
		"garbage":    "12\nxyz\n",
		"negative":   "-5\n",
		"decreasing": "100\n50\n",
		"empty":      "# nothing\n",
		"overflow":   "9223372036854775807\n",
		"years":      "100000000000\n",
	} {
		if _, err := ParseMahimahiTrace(name, strings.NewReader(bad), 0, 0); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

// FuzzParseMahimahiTrace feeds arbitrary text to the trace parser: it
// must not panic, and a trace it accepts has at least one epoch and a
// finite, positive mean rate.
func FuzzParseMahimahiTrace(f *testing.F) {
	f.Add("# comment\n0\n10\n\n99\n150\n250\n")
	f.Add("9223372036854775807\n")
	f.Add("100000000000\n")
	f.Add("0\n86400000\n")
	f.Add("5\n5\n5\n")
	f.Fuzz(func(t *testing.T, src string) {
		tl, err := ParseMahimahiTrace("fuzz", strings.NewReader(src), 0, 0)
		if err != nil {
			return
		}
		if mean := tl.MeanBps(); tl.Epochs() < 1 || !(mean > 0) || math.IsInf(mean, 0) {
			t.Fatalf("accepted trace with %d epochs, mean %v bps", tl.Epochs(), mean)
		}
	})
}

// tracePath wires the same TraceLink onto every directed path.
func tracePath(tl *TraceLink, delay time.Duration) PathFunc {
	return func(src, dst Addr) PathProps {
		return PathProps{Delay: delay, Trace: tl}
	}
}

func TestNetworkTraceDrivenDelivery(t *testing.T) {
	// 8e6 bps epoch, then a 100ms dead zone, cycling.
	tl := mustTrace(t, "t", []TraceSample{
		{100 * time.Millisecond, 8e6},
		{100 * time.Millisecond, 0},
	})
	var s Scheduler
	n := NewNetwork(&s, tracePath(tl, 5*time.Millisecond), seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	var arrivals []time.Duration
	if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	// Each 1000-byte packet is 8000 bits = 1ms at 8e6 bps.
	for i := 0; i < 3; i++ {
		a.Send(1, "b", 80, 1000, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{6 * time.Millisecond, 7 * time.Millisecond, 8 * time.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrivals))
	}
	for i, at := range arrivals {
		if at != want[i] {
			t.Fatalf("arrival[%d] = %v, want %v", i, at, want[i])
		}
	}
}

func TestNetworkTraceDeadZoneStalls(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{
		{10 * time.Millisecond, 8e6},
		{100 * time.Millisecond, 0},
	})
	var s Scheduler
	n := NewNetwork(&s, tracePath(tl, 0), seqrand.New(1))
	a := n.AddHost("a")
	b := n.AddHost("b")
	var arrivals []time.Duration
	if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
		t.Fatal(err)
	}
	// 15 packets of 1ms each: 10 drain in the first epoch, the rest
	// stall across the 100ms dead zone — nothing may be dropped.
	for i := 0; i < 15; i++ {
		a.Send(1, "b", 80, 1000, nil)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 15 {
		t.Fatalf("delivered %d, want 15 (dead zones stall, never drop)", len(arrivals))
	}
	if arrivals[9] != 10*time.Millisecond {
		t.Fatalf("arrival[9] = %v, want 10ms", arrivals[9])
	}
	if arrivals[10] != 111*time.Millisecond {
		t.Fatalf("arrival[10] = %v, want 111ms (post-dead-zone)", arrivals[10])
	}
	if st := n.Stats(); st.LossDrops+st.QueueDrops+st.BurstDrops+st.OutageDrops != 0 {
		t.Fatalf("drops = %+v", st)
	}
}

func TestNetworkTraceDeterministicReplay(t *testing.T) {
	tl := mustTrace(t, "t", []TraceSample{
		{30 * time.Millisecond, 3e6},
		{20 * time.Millisecond, 0},
		{50 * time.Millisecond, 9e6},
	})
	run := func() []time.Duration {
		var s Scheduler
		n := NewNetwork(&s, tracePath(tl, 2*time.Millisecond), seqrand.New(7))
		a := n.AddHost("a")
		b := n.AddHost("b")
		var arrivals []time.Duration
		if err := b.Bind(80, func(Packet) { arrivals = append(arrivals, s.Now()) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			a.Send(1, "b", 80, 1200, nil)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay length mismatch: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
}
