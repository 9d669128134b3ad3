package tcpsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"h3cdn/internal/simnet"
)

// TestBlackoutRTONotPermanentlyInflated is the satellite-1 regression: a
// transient blackout backs the RTO off exponentially, and the first
// valid post-recovery RTT sample must re-seed it from srtt + 4·rttvar —
// the doubled value may linger across the Karn-suppressed retransmission
// ACK, but never past fresh data.
func TestBlackoutRTONotPermanentlyInflated(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	var rec simnet.RecoveryStats
	cfg := w.config(Config{Recovery: &rec})
	echoServer(t, w.b, 80, w.config(Config{}))

	var conn *Conn
	var buf bytes.Buffer
	Dial(w.a, "server", 80, cfg, func(c *Conn) {
		conn = c
		c.SetDataFunc(func(p []byte) { buf.Write(p) })
		c.SetCloseFunc(func(err error) {
			if err != nil {
				t.Errorf("connection failed: %v", err)
			}
		})
		c.Write(make([]byte, 500))
	})

	blackout := func(p simnet.Packet) bool { return false }
	w.sched.At(200*time.Millisecond, func() { w.net.SetFilter(blackout) })
	w.sched.At(210*time.Millisecond, func() { conn.Write(make([]byte, 500)) })
	var inflated time.Duration
	w.sched.At(3900*time.Millisecond, func() { inflated = conn.rto })
	w.sched.At(4*time.Second, func() { w.net.SetFilter(nil) })
	// Fresh data after recovery: its ACK carries the valid sample that
	// re-seeds the RTO.
	w.sched.At(20*time.Second, func() { conn.Write(make([]byte, 500)) })

	run(t, w.sched)

	if buf.Len() != 1500 {
		t.Fatalf("echoed %d bytes, want 1500 (transfer must survive the blackout)", buf.Len())
	}
	if inflated <= time.Second {
		t.Fatalf("rto during blackout = %v, want > 1s (exponential backoff)", inflated)
	}
	if conn.rto != 200*time.Millisecond {
		t.Fatalf("rto after recovery = %v, want re-seed to RTOMin (200ms) from srtt+4·rttvar", conn.rto)
	}
	if rec.Timeouts < 2 {
		t.Fatalf("Recovery.Timeouts = %d, want ≥ 2", rec.Timeouts)
	}
	if rec.OutageCrossings < 1 {
		t.Fatalf("Recovery.OutageCrossings = %d, want ≥ 1", rec.OutageCrossings)
	}
	if rec.ConnFailures != 0 {
		t.Fatalf("Recovery.ConnFailures = %d, want 0", rec.ConnFailures)
	}
}

// TestBlackoutAbortIsRetryableError checks the max-retry abort surfaces
// through the close callback as ErrTimeout — a retryable transport error
// the application layer can act on — and is counted as a ConnFailure.
func TestBlackoutAbortIsRetryableError(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0)
	var rec simnet.RecoveryStats
	cfg := w.config(Config{MaxRetries: 3, Recovery: &rec})
	echoServer(t, w.b, 80, w.config(Config{}))

	var closeErr error
	closed := false
	Dial(w.a, "server", 80, cfg, func(c *Conn) {
		c.SetCloseFunc(func(err error) { closeErr = err; closed = true })
		c.Write(make([]byte, 500))
		// Permanent blackout right after the write is flushed.
		w.sched.After(time.Millisecond, func() {
			w.net.SetFilter(func(simnet.Packet) bool { return false })
		})
	})
	run(t, w.sched)

	if !closed {
		t.Fatal("connection never reported failure under a permanent blackout")
	}
	if !errors.Is(closeErr, ErrTimeout) {
		t.Fatalf("close error = %v, want ErrTimeout", closeErr)
	}
	if rec.ConnFailures != 1 {
		t.Fatalf("Recovery.ConnFailures = %d, want 1", rec.ConnFailures)
	}
}
