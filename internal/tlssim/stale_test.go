package tlssim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
)

// TestCallsAfterTransportTeardown kills a TLS connection's TCP transport
// with a reset, lets a new connection take the dead one's TCP struct
// from the shared pools, and then drives every transport-reaching call
// of the old TLS conn: writes, UnsentBytes, SetDrainFunc, Abort, Close.
// None may reach the struct's new occupant, which must deliver exactly
// its own bytes and close cleanly.
func TestCallsAfterTransportTeardown(t *testing.T) {
	r := newRig()
	sched := r.sched
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 20e6}
	}, seqrand.New(5))
	client, server := n.AddHost("client"), n.AddHost("server")
	tcfg := r.tcpCfg()

	// The server keeps each connection's plaintext and how it ended, in
	// accept order.
	var servers []*Conn
	got := make(map[int]*bytes.Buffer)
	ends := make(map[int]error)
	if _, err := tcpsim.Listen(server, 443, tcfg, func(tc *tcpsim.Conn) {
		key, buf := len(servers), &bytes.Buffer{}
		got[key] = buf
		var c *Conn
		c = Server(tc, r.serverCfg(ServerConfig{}), nil)
		servers = append(servers, c)
		c.SetDataFunc(func(p []byte) { buf.Write(p) })
		c.SetCloseFunc(func(err error) {
			ends[key] = err
			c.Close()
		})
	}); err != nil {
		t.Fatal(err)
	}
	dial := func(ready func(*tcpsim.Conn, *Conn)) {
		tcpsim.Dial(client, "server", 443, tcfg, func(tc *tcpsim.Conn) {
			var c *Conn
			c = Client(tc, r.clientCfg(ClientConfig{ServerName: "server"}), func(err error) {
				if err != nil {
					t.Fatalf("handshake: %v", err)
				}
				ready(tc, c)
			})
		})
	}

	var oldTCP *tcpsim.Conn
	var old *Conn
	var oldErr error
	dial(func(tc *tcpsim.Conn, c *Conn) {
		oldTCP, old = tc, c
		c.SetCloseFunc(func(err error) { oldErr = err })
		c.Write([]byte("first connection"))
	})
	sched.At(300*time.Millisecond, func() { servers[0].Abort() })
	sched.RunUntil(400 * time.Millisecond)
	if !errors.Is(oldErr, tcpsim.ErrAborted) {
		t.Fatalf("old connection ended with %v, want the reset", oldErr)
	}

	want := make([]byte, 300<<10)
	for i := range want {
		want[i] = byte(i * 13)
	}
	var newTCP *tcpsim.Conn
	var newErr error
	drained := false
	dial(func(tc *tcpsim.Conn, c *Conn) {
		newTCP = tc
		c.SetCloseFunc(func(err error) { newErr = err })
		c.Write(want)
		// Every call of the old conn lands while the new one has
		// bytes in flight and queued.
		if n := old.UnsentBytes(); n != 0 {
			t.Errorf("old conn reports %d unsent bytes", n)
		}
		old.SetDrainFunc(0, func() { drained = true })
		old.Write([]byte("stale write"))
		old.WriteOpaque([]byte("stale"), 4096)
		sched.After(50*time.Millisecond, func() {
			old.Abort()
			old.Close()
			c.Close()
		})
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}

	if drained {
		t.Error("the old conn's drain callback ran: it was installed on the new transport")
	}
	if newTCP != oldTCP {
		t.Fatal("the new connection did not reuse the dead one's TCP struct")
	}
	if newErr != nil || ends[1] != nil {
		t.Fatalf("new connection ended with %v / server %v, want clean closes", newErr, ends[1])
	}
	if !bytes.Equal(got[1].Bytes(), want) {
		t.Fatalf("new connection delivered %d bytes, not exactly its own %d", got[1].Len(), len(want))
	}
}
