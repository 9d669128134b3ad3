package quicsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"h3cdn/internal/simnet"
)

// TestArmPTOAfterCloseIsNoOp is the satellite-2 nil-guard regression:
// teardown releases the PTO timer, so a stray re-arm or a PTO callback
// racing connection close must be a no-op, not a nil dereference.
func TestArmPTOAfterCloseIsNoOp(t *testing.T) {
	w := newWorld(t, time.Millisecond, 0, 0, 7)
	echoListen(t, w)
	var conn *Conn
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server"}), func(c *Conn) {
		conn = c
		c.Close()
	})
	w.run(t)
	if conn == nil {
		t.Fatal("connection never established")
	}
	// Both entry points after teardown: must not panic.
	conn.armPTO()
	conn.onPTO()
}

// TestBlackoutSurvivesBeyondMaxPTOs covers the PTO bugfix: with a tiny
// SRTT the backoff base clamps to the profile's 2ms floor, so MaxPTOs consecutive
// expirations exhaust in ~1s of virtual time. A 3s blackout must not
// kill the connection — failure requires the probeTimeout virtual-time
// floor (15s) as well as the count.
func TestBlackoutSurvivesBeyondMaxPTOs(t *testing.T) {
	w := newWorld(t, 200*time.Microsecond, 0, 0, 7)
	echoListen(t, w)
	var rec simnet.RecoveryStats

	var conn *Conn
	var got bytes.Buffer
	eof := false
	payload := make([]byte, 800)
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Config: Config{Recovery: &rec}}), func(c *Conn) {
		conn = c
		c.SetCloseFunc(func(err error) {
			if err != nil {
				t.Errorf("connection failed during blackout: %v", err)
			}
		})
		s := c.OpenStream()
		s.SetDataFunc(func(p []byte) { got.Write(p) })
		s.finFn = func() { eof = true }
		w.sched.At(5*time.Millisecond, func() {
			w.net.SetFilter(func(simnet.Packet) bool { return false })
		})
		w.sched.At(6*time.Millisecond, func() {
			s.Write(payload)
			s.CloseWrite()
		})
		w.sched.At(3*time.Second, func() { w.net.SetFilter(nil) })
	})
	w.run(t)

	if conn == nil {
		t.Fatal("connection never established")
	}
	if !eof || got.Len() != len(payload) {
		t.Fatalf("echo incomplete after blackout: %d bytes, eof=%v", got.Len(), eof)
	}
	if conn.state != stateEstablished {
		t.Fatal("connection did not survive the blackout")
	}
	if rec.ProbeFires <= int64(defaultMaxPTOs()) {
		t.Fatalf("ProbeFires = %d, want > MaxPTOs (%d): the blackout must outlast the old failure point", rec.ProbeFires, defaultMaxPTOs())
	}
	if rec.OutageCrossings < 1 {
		t.Fatalf("OutageCrossings = %d, want ≥ 1", rec.OutageCrossings)
	}
	if rec.ConnFailures != 0 {
		t.Fatalf("ConnFailures = %d, want 0", rec.ConnFailures)
	}
}

func defaultMaxPTOs() int {
	var c Config
	return c.withDefaults().MaxPTOs
}

// TestProbeTimeoutFailsUnderPermanentBlackout checks the give-up path is
// still reachable: once both MaxPTOs and probeTimeout (15s of virtual
// time) are exceeded with no connectivity, the connection errors out
// with ErrTimeout and counts a ConnFailure — not before the floor.
func TestProbeTimeoutFailsUnderPermanentBlackout(t *testing.T) {
	w := newWorld(t, 200*time.Microsecond, 0, 0, 7)
	echoListen(t, w)
	var rec simnet.RecoveryStats

	var closeErr error
	var closedAt time.Duration
	closed := false
	Dial(w.client, "server", 443, w.clientCfg(ClientConfig{ServerName: "server", Config: Config{Recovery: &rec}}), func(c *Conn) {
		c.SetCloseFunc(func(err error) { closeErr, closedAt, closed = err, w.sched.Now(), true })
		s := c.OpenStream()
		w.sched.At(5*time.Millisecond, func() {
			w.net.SetFilter(func(simnet.Packet) bool { return false })
		})
		w.sched.At(6*time.Millisecond, func() {
			s.Write(make([]byte, 800))
			s.CloseWrite()
		})
	})
	w.run(t)

	if !closed {
		t.Fatal("connection never gave up under a permanent blackout")
	}
	if !errors.Is(closeErr, ErrTimeout) {
		t.Fatalf("close error = %v, want ErrTimeout", closeErr)
	}
	// The blackout starts at 5ms and the first probe fires a PTO later,
	// so the give-up cannot come before 5ms + probeTimeout.
	if closedAt < 5*time.Millisecond+probeTimeout {
		t.Fatalf("gave up at %v, before the %v probe floor", closedAt, probeTimeout)
	}
	if rec.ConnFailures != 1 {
		t.Fatalf("ConnFailures = %d, want 1", rec.ConnFailures)
	}
}
