package tlssim

import (
	"bytes"
	"testing"
	"time"

	rt "h3cdn/internal/recycletest"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
)

// TestConnResetMatchesFresh: a recycled conn reads as a fresh one but for
// what reset keeps on purpose.
func TestConnResetMatchesFresh(t *testing.T) {
	rt.Check(t, func() *Conn { return allocConn(nil) }, (*Conn).reset, rt.Rules[Conn]{
		Keep: map[string]rt.Keep{
			"pending":  rt.Emptied,
			"onDataT":  rt.Same,
			"onCloseT": rt.Same,
		},
		Samples: []any{&tcpsim.Conn{}},
	})
}

// fakeTransport is a bytestream.Throttled with no peer that exposes the
// callbacks set on it.
type fakeTransport struct {
	data  func([]byte)
	close func(error)
	drain func()
}

func (f *fakeTransport) Write([]byte)                  {}
func (f *fakeTransport) WriteOpaque([]byte, int)       {}
func (f *fakeTransport) SetDataFunc(fn func([]byte))   { f.data = fn }
func (f *fakeTransport) SetCloseFunc(fn func(error))   { f.close = fn }
func (f *fakeTransport) Close()                        {}
func (f *fakeTransport) Abort()                        {}
func (f *fakeTransport) UnsentBytes() int              { return 0 }
func (f *fakeTransport) SetDrainFunc(_ int, fn func()) { f.drain = fn }

// TestCloseAndReleaseCutCallbacks: Close cuts every callback the
// transport holds into the conn or the layer above it — data, close,
// and the drain callback set through the conn — since the transport
// lives on through its FIN exchange after the conn is recycled. Release
// cuts the conn's own callbacks into the layer above.
func TestCloseAndReleaseCutCallbacks(t *testing.T) {
	f := &fakeTransport{}
	r := newRig()
	c := Server(f, r.serverCfg(ServerConfig{}), func(error) {})
	c.SetDataFunc(func([]byte) {})
	c.SetCloseFunc(func(error) {})
	c.SetDrainFunc(1, func() {})
	if f.data == nil || f.close == nil || f.drain == nil {
		t.Fatal("the conn did not install its transport callbacks")
	}
	c.Close()
	if f.data != nil || f.close != nil || f.drain != nil {
		t.Fatal("Close left a transport callback into the conn or above it")
	}
	c.Release()
	if c.dataFn != nil || c.closeFn != nil || c.onHandshake != nil {
		t.Fatal("Release left a callback into the layer above")
	}
	r.run(t)
}

// TestHandshakeStepOutlivesRelease: a pooled client conn aborted and
// released while its handshake CPU step waits on the scheduler is not
// handed out again until the step has run — so the late step can reach
// no new occupant — and is handed out after. Its own handshake callback
// never fires once released.
func TestHandshakeStepOutlivesRelease(t *testing.T) {
	r := newRig()
	sched := r.sched
	n := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond}
	}, seqrand.New(5))
	client, server := n.AddHost("client"), n.AddHost("server")
	tcfg := r.tcpCfg()
	got := map[int]*bytes.Buffer{}
	if _, err := tcpsim.Listen(server, 443, tcfg, func(tc *tcpsim.Conn) {
		buf := &bytes.Buffer{}
		got[len(got)] = buf
		c := Server(tc, r.serverCfg(ServerConfig{}), nil)
		c.SetDataFunc(func(p []byte) { buf.Write(p) })
	}); err != nil {
		t.Fatal(err)
	}
	pools := &Pools{}
	dial := func(made func(*Conn), done func(error)) {
		tcpsim.Dial(client, "server", 443, tcfg, func(tc *tcpsim.Conn) {
			made(Client(tc, r.clientCfg(ClientConfig{ServerName: "server", HandshakeCPU: 40 * time.Millisecond, Pools: pools}), done))
		})
	}

	var first, second, third *Conn
	firstCalls, thirdCalls := 0, 0
	dial(func(c *Conn) { first = c }, func(error) { firstCalls++ })
	// Abort and release the first conn as soon as its completion step
	// waits, and dial the second, whose TLS starts before the step runs.
	var poll func()
	poll = func() {
		if first == nil || first.steps == 0 {
			sched.After(time.Millisecond, poll)
			return
		}
		first.Abort()
		first.Release()
		dial(func(c *Conn) { second = c }, func(error) {})
	}
	sched.After(time.Millisecond, poll)
	sched.At(time.Second, func() {
		dial(func(c *Conn) { third = c }, func(err error) {
			thirdCalls++
			if err == nil {
				third.Write([]byte("third"))
			}
		})
	})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if first == nil || second == nil || second == first {
		t.Fatal("the second conn took the first's struct while its step waited")
	}
	if third != first {
		t.Fatal("the first conn's struct was not recycled once its step had run")
	}
	if firstCalls != 0 || thirdCalls != 1 {
		t.Fatalf("handshake callbacks: released conn %d, its struct's new occupant %d; want 0 and 1", firstCalls, thirdCalls)
	}
	if got[2] == nil || got[2].String() != "third" {
		t.Fatalf("the third server conn received %q", got[2])
	}
}
