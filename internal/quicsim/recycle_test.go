package quicsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	rt "h3cdn/internal/recycletest"
)

// TestResetMatchesFresh: recycled conns and streams read as fresh ones
// but for what reset keeps on purpose.
func TestResetMatchesFresh(t *testing.T) {
	t.Run("Conn", func(t *testing.T) {
		rt.Check(t, allocConn, (*Conn).reset, rt.Rules[Conn]{Keep: map[string]rt.Keep{
			"streams":      rt.Emptied,
			"sendable":     rt.Emptied,
			"sent.s":       rt.Emptied,
			"recvd.ranges": rt.Emptied,
			"pktFn":        rt.Same,
			"onPTOFn":      rt.Same,
		}})
	})
	t.Run("Stream", func(t *testing.T) {
		rt.Check(t, func() *Stream { return &Stream{} }, (*Stream).reset, rt.Rules[Stream]{})
	})
}

// TestConnWaitsForHeldStreamsAndSteps: a conn its owner released and
// aborted is not handed out again while its application holds one of
// its streams, nor while its handshake step waits on the scheduler —
// both still reach it — and is handed out once neither does.
func TestConnWaitsForHeldStreamsAndSteps(t *testing.T) {
	w := newWorld(t, 10*time.Millisecond, 0, 0, 1)
	echoListen(t, w)
	pools := &Pools{}
	dial := func(cpu time.Duration) *Conn {
		return Dial(w.client, "server", 443, ClientConfig{Config: Config{Pools: pools}, ServerName: "server", HandshakeCPU: cpu}, nil)
	}

	// A held stream.
	c := dial(0)
	var held *Stream
	w.sched.At(100*time.Millisecond, func() {
		held = c.OpenStream()
		held.Hold()
		c.Release()
		c.Abort()
	})
	var during, after *Conn
	w.sched.At(200*time.Millisecond, func() { during = dial(0) })
	w.sched.At(300*time.Millisecond, func() { held.Release() })
	w.sched.At(400*time.Millisecond, func() { after = dial(0) })
	w.run(t)
	if during == c || after != c {
		t.Fatalf("held stream: reused while held %v, after release %v; want false, true", during == c, after == c)
	}

	// A handshake step: the client's 50 ms of handshake CPU starts when
	// the ServerHello arrives, 20 ms after the dial.
	slow := dial(50 * time.Millisecond)
	w.sched.At(w.sched.Now()+30*time.Millisecond, func() {
		if slow.steps == 0 {
			t.Error("no handshake step waiting")
		}
		slow.Release()
		slow.Abort()
		during = dial(0)
	})
	w.sched.At(w.sched.Now()+time.Second, func() { after = dial(0) })
	w.run(t)
	if during == slow || after != slow {
		t.Fatalf("handshake step: reused while waiting %v, after %v; want false, true", during == slow, after == slow)
	}
}

// TestRecycledConnsMapOrderInvisible runs, several times in one process,
// a wave of 16-stream connections that abort mid-transfer — teardown
// ranges each conn's streams map — and a second wave on the recycled
// structs, whose reused maps are ranged again at their teardown. Go
// randomises every range over a map, so if that order reached anything
// scheduled or written, the runs would differ: every run must deliver the
// same bytes at the same virtual times in the same number of events.
func TestRecycledConnsMapOrderInvisible(t *testing.T) {
	run := func() string {
		w := newWorld(t, 5*time.Millisecond, 20e6, 0.01, 9)
		echoListen(t, w)
		pools := &Pools{}
		var log bytes.Buffer
		wave := func(name string, abortAt time.Duration) {
			for i := 0; i < 3; i++ {
				c := Dial(w.client, "server", 443, ClientConfig{Config: Config{Pools: pools}, ServerName: "server"}, func(c *Conn) {
					for j := 0; j < 16; j++ {
						s := c.OpenStream()
						id := s.ID()
						s.SetDataFunc(func(p []byte) {
							fmt.Fprintf(&log, "%s %d %d %v %d\n", name, i, id, w.sched.Now(), len(p))
						})
						s.Write(patterned(20_000 + 500*j))
						s.CloseWrite()
					}
				})
				w.sched.At(w.sched.Now()+abortAt, func() { c.Release(); c.Abort() })
			}
		}
		wave("first", 40*time.Millisecond)
		w.run(t)
		wave("second", time.Minute)
		n, _ := w.sched.Run()
		fmt.Fprintf(&log, "events %d\n", n)
		return log.String()
	}
	want := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs from the first", i+2)
		}
	}
}
