package tcpsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"h3cdn/internal/simnet"
)

// TestResetProbeAfterReuse aborts an established connection on max
// retries inside a blackout, which starts its RST probe series, and
// dials a new connection while probes are still due: either once the
// path is back, when the new connection gets the aborted one's struct,
// or from the abort's own close callback, while the abort is still
// unwinding and must not hand the struct out yet. Either way the probes
// reset only what is left of the dead connection, and the new one
// delivers exactly its own bytes, in full, to a server half that sees a
// clean close.
func TestResetProbeAfterReuse(t *testing.T) {
	for _, inCallback := range []bool{false, true} {
		w := newWorld(t, 10*time.Millisecond, 10e6, 0)
		cfg := w.config(Config{MaxRetries: 2})
		got := make(map[uint16]*bytes.Buffer)
		ends := make(map[uint16]error)
		if _, err := Listen(w.b, 80, cfg, func(c *Conn) {
			port, buf := c.remotePort, &bytes.Buffer{}
			got[port] = buf
			c.SetDataFunc(func(p []byte) { buf.Write(p) })
			c.SetCloseFunc(func(err error) {
				if _, seen := ends[port]; !seen {
					ends[port] = err
				}
				c.Close()
			})
		}); err != nil {
			t.Fatal(err)
		}

		want := make([]byte, 200<<10)
		for i := range want {
			want[i] = byte(i * 7)
		}
		var c *Conn
		var newErr error
		dial := func() {
			c = Dial(w.a, "server", 80, cfg, func(c *Conn) {
				c.Write(want)
				c.Close()
			})
			c.SetCloseFunc(func(err error) { newErr = err })
		}

		var oldErr error
		old := Dial(w.a, "server", 80, cfg, func(c *Conn) { c.Write(make([]byte, 64<<10)) })
		old.SetCloseFunc(func(err error) {
			oldErr = err
			if inCallback {
				dial()
			}
		})
		oldPort := old.localPort
		w.sched.At(30*time.Millisecond, func() { w.net.SetFilter(func(simnet.Packet) bool { return false }) })
		w.sched.At(3*time.Second, func() { w.net.SetFilter(nil) })
		w.sched.RunUntil(3500 * time.Millisecond)
		if !errors.Is(oldErr, ErrTimeout) {
			t.Fatalf("first connection ended with %v, want ErrTimeout", oldErr)
		}
		if w.sched.Pending() == 0 {
			t.Fatal("no reset probe left to fire")
		}
		if !inCallback {
			dial()
		}
		if reused := c == old; reused == inCallback {
			t.Fatalf("dialing in the close callback: %v; new connection reused the aborted one's struct: %v", inCallback, reused)
		}
		port := c.localPort
		run(t, w.sched)

		if port == oldPort {
			t.Fatal("the new connection reused the old port; the test needs distinct ones")
		}
		if !errors.Is(ends[oldPort], ErrAborted) {
			t.Fatalf("the dead connection's server half ended with %v, want the probes' ErrAborted", ends[oldPort])
		}
		if newErr != nil || ends[port] != nil {
			t.Fatalf("new connection ended with %v / server %v, want clean closes", newErr, ends[port])
		}
		if !bytes.Equal(got[port].Bytes(), want) {
			t.Fatalf("new connection delivered %d bytes, not exactly its own %d", got[port].Len(), len(want))
		}
	}
}
