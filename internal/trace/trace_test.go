package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if got := tr.ConnID(); got != 0 {
		t.Fatalf("nil ConnID = %d, want 0", got)
	}
	// Every entry point must be a no-op on nil.
	tr.BeginVisit("example.org", 0)
	tr.PacketSent(1, "a", "b", 1, 2, 100)
	tr.TCPSynSent(1, 1)
	tr.QUICAck(1, 1, 5, 1, 0)
	tr.FetchStart(1, 0, "h", "/")
	if err := tr.EndVisit(time.Second); err != nil {
		t.Fatal(err)
	}
	tr.Abort()
}

func TestEmitsOutsideVisitDiscarded(t *testing.T) {
	var got *VisitRecord
	tr := New(16, func(v *VisitRecord) { got = v })
	tr.TCPSynSent(1, 1) // before BeginVisit: warm pass
	tr.BeginVisit("example.org", 10)
	tr.TCPSynSent(11, 2)
	tr.EndVisit(100)
	if got == nil || len(got.Events) != 1 {
		t.Fatalf("got %+v, want exactly the in-visit event", got)
	}
	if got.Events[0].Conn != 2 {
		t.Fatalf("event conn = %d, want 2", got.Events[0].Conn)
	}
	got = nil
	tr.TCPSynSent(200, 3) // after EndVisit
	tr.EndVisit(100)      // no visit open: no sink call
	if got != nil {
		t.Fatalf("EndVisit outside a visit invoked the sink")
	}
}

// TestLongVisitDeliveredWhole emits a visit of 100 000 events, more than
// the heaviest measured visit and than any power-of-two buffer below it:
// the sink receives every one, in emission order.
func TestLongVisitDeliveredWhole(t *testing.T) {
	const n = 100_000
	var got []Event
	tr := New(0, func(v *VisitRecord) { got = append(got, v.Events...) })
	tr.BeginVisit("example.org", 0)
	for i := 1; i <= n; i++ {
		tr.TCPSynSent(time.Duration(i), uint32(i))
	}
	if err := tr.EndVisit(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("sink got %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if want := uint32(i + 1); e.Conn != want {
			t.Fatalf("event %d conn = %d, want %d (emission order)", i, e.Conn, want)
		}
	}
}

// TestVisitPastCeilingFails lowers the per-visit ceiling: a visit that
// emits past it delivers nothing and EndVisit names its site, and the
// next visit records afresh.
func TestVisitPastCeilingFails(t *testing.T) {
	calls := 0
	tr := New(0, func(*VisitRecord) { calls++ })
	tr.limit = 8
	tr.BeginVisit("heavy.example", 0)
	for i := 0; i < 9; i++ {
		tr.TCPSynSent(time.Duration(i), 1)
	}
	err := tr.EndVisit(time.Second)
	if err == nil || !strings.Contains(err.Error(), "heavy.example") {
		t.Fatalf("EndVisit past the ceiling: err = %v, want one naming the site", err)
	}
	if calls != 0 {
		t.Fatalf("sink called %d times for a visit past the ceiling, want 0", calls)
	}
	tr.BeginVisit("light.example", 0)
	for i := 0; i < 8; i++ {
		tr.TCPSynSent(time.Duration(i), 1)
	}
	if err := tr.EndVisit(time.Second); err != nil || calls != 1 {
		t.Fatalf("visit at the ceiling: err = %v, %d sink calls; want nil, 1", err, calls)
	}
}

func TestAbortDropsVisit(t *testing.T) {
	calls := 0
	tr := New(8, func(*VisitRecord) { calls++ })
	tr.BeginVisit("example.org", 0)
	tr.TCPSynSent(1, 1)
	tr.Abort()
	tr.EndVisit(10)
	if calls != 0 {
		t.Fatalf("sink called %d times after Abort, want 0", calls)
	}
}

func TestAppendMS(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0.000000"},
		{time.Nanosecond, "0.000001"},
		{time.Millisecond, "1.000000"},
		{1234567 * time.Nanosecond, "1.234567"},
		{3 * time.Second, "3000.000000"},
		{-1500 * time.Microsecond, "-1.500000"},
	}
	for _, c := range cases {
		if got := string(appendMS(nil, c.d)); got != c.want {
			t.Errorf("appendMS(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestQlogWriterParsesAndIsDeterministic(t *testing.T) {
	record := func() *VisitRecord {
		return &VisitRecord{
			Site:  "site-0.example",
			Start: 5 * time.Millisecond,
			PLT:   80 * time.Millisecond,
			Events: []Event{
				{At: 5 * time.Millisecond, Kind: KindFetchStart, A: 1, S1: "site-0.example", S2: "/"},
				{At: 6 * time.Millisecond, Kind: KindTCPSynSent, Conn: 1},
				{At: 9 * time.Millisecond, Kind: KindTCPEstablished, Conn: 1, A: 1},
				{At: 9 * time.Millisecond, Kind: KindTLSClientHello, Conn: 1, A: 13, B: 1},
				{At: 14 * time.Millisecond, Kind: KindPacketDropped, A: 1200, B: int64(443)<<16 | 49152, C: DropBurst, S1: "a", S2: "b"},
				{At: 20 * time.Millisecond, Kind: KindFetchDone, Conn: 1, A: 1, B: 200, C: 4096},
			},
		}
	}
	serialize := func() []byte {
		var buf bytes.Buffer
		w := NewQlogWriter(&buf, "test trace")
		if err := w.WriteVisit(record()); err != nil {
			t.Fatalf("WriteVisit: %v", err)
		}
		return buf.Bytes()
	}
	a, b := serialize(), serialize()
	if !bytes.Equal(a, b) {
		t.Fatalf("qlog serialization is not byte-deterministic")
	}

	sc := bufio.NewScanner(bytes.NewReader(a))
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
		if lines == 1 {
			if obj["qlog_version"] != "0.3" {
				t.Fatalf("header missing qlog_version: %s", sc.Text())
			}
			continue
		}
		if _, ok := obj["name"].(string); !ok {
			t.Fatalf("line %d missing event name: %s", lines, sc.Text())
		}
	}
	// Header + visit_start + 6 events + visit_end.
	if lines != 9 {
		t.Fatalf("got %d JSONL lines, want 9", lines)
	}
	if !strings.Contains(string(a), `"cause":"burst"`) {
		t.Fatalf("drop cause not serialized:\n%s", a)
	}
}

func TestAttributeVisitPartitionsWindow(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	v := &VisitRecord{
		Site:  "s",
		Start: ms(100),
		PLT:   ms(100), // window [100, 200]
		Events: []Event{
			// Client TCP conn 1: connect 100..110, TLS 110..130.
			{At: ms(100), Kind: KindTCPSynSent, Conn: 1},
			{At: ms(110), Kind: KindTCPEstablished, Conn: 1, A: 1},
			{At: ms(110), Kind: KindTLSClientHello, Conn: 1, A: 13},
			{At: ms(130), Kind: KindTLSHandshakeDone, Conn: 1, A: 1},
			// Server-side conn 2 (no dial event): must not contribute.
			{At: ms(105), Kind: KindTCPEstablished, Conn: 2},
			{At: ms(120), Kind: KindTCPHolStart, Conn: 2, A: 999},
			{At: ms(125), Kind: KindTCPHolEnd, Conn: 2},
			// Fetch 1: sent 130, done 180; overlapping HOL stall 140..160
			// outranks transfer.
			{At: ms(130), Kind: KindFetchSent, Conn: 1, A: 1},
			{At: ms(140), Kind: KindTCPHolStart, Conn: 1, A: 4096},
			{At: ms(160), Kind: KindTCPHolEnd, Conn: 1},
			{At: ms(180), Kind: KindFetchDone, Conn: 1, A: 1, B: 200},
		},
	}
	p := AttributeVisit(v)
	if p.Total() != v.PLT {
		t.Fatalf("Total = %v, want PLT %v (buckets must partition the window)", p.Total(), v.PLT)
	}
	want := PhaseBreakdown{
		Connect:   ms(10),
		Handshake: ms(20),
		Stall:     ms(20),
		Transfer:  ms(30), // 130..180 minus the 20ms stall
		Other:     ms(20), // 180..200 tail
	}
	if p != want {
		t.Fatalf("AttributeVisit = %+v, want %+v", p, want)
	}
}

func TestAttributeVisitClampsOpenSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	v := &VisitRecord{
		Start: 0,
		PLT:   ms(50),
		Events: []Event{
			// Dial that never completes: connect clamps to window end.
			{At: ms(10), Kind: KindTCPSynSent, Conn: 1},
			// QUIC handshake completing after the window: clamped too.
			{At: ms(0), Kind: KindQUICHandshakeStart, Conn: 2},
			{At: ms(70), Kind: KindQUICHandshakeDone, Conn: 2, A: 1},
		},
	}
	p := AttributeVisit(v)
	if p.Total() != v.PLT {
		t.Fatalf("Total = %v, want %v", p.Total(), v.PLT)
	}
	// QUIC handshake covers 0..50 (priority below connect only where
	// both are active: connect active 10..50).
	want := PhaseBreakdown{Connect: ms(40), Handshake: ms(10)}
	if p != want {
		t.Fatalf("AttributeVisit = %+v, want %+v", p, want)
	}
}

func TestAttributeVisitEmpty(t *testing.T) {
	p := AttributeVisit(&VisitRecord{PLT: time.Second})
	if p.Other != time.Second || p.Total() != time.Second {
		t.Fatalf("empty trace: %+v, want all time in Other", p)
	}
	if z := AttributeVisit(&VisitRecord{}); z.Total() != 0 {
		t.Fatalf("zero-PLT visit: %+v, want zero", z)
	}
}
