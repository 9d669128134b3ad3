package tcpsim

import (
	"testing"
	"time"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// BenchmarkTCPOpaqueTransfer moves 1 MB one way per op over a fresh
// connection on warm Pools, written the way a server sends a body over
// TLS: 64 writes of a 15-byte supplied head and 16 KB of opaque bytes.
// Its allocs/op must not grow with the transfer size; BENCH_baseline.json
// records it so per-byte allocation cannot come back unnoticed.
func BenchmarkTCPOpaqueTransfer(b *testing.B) {
	const pieces, opaque = 64, 16 << 10
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 10 * time.Millisecond, BandwidthBps: 1e9}
	}, seqrand.New(1))
	client, server := net.AddHost("client"), net.AddHost("server")
	cfg := Config{Pools: &Pools{}, Arena: &bufpool.Arena{}}
	received := 0
	if _, err := Listen(server, 80, cfg, func(c *Conn) {
		c.SetDataFunc(func(p []byte) { received += len(p) })
		c.SetCloseFunc(func(error) { c.Close() })
	}); err != nil {
		b.Fatal(err)
	}
	head := make([]byte, 15)
	send := func(c *Conn) {
		for i := 0; i < pieces; i++ {
			c.WriteOpaque(head, opaque)
		}
		c.Close()
	}
	transfer := func() {
		Dial(client, "server", 80, cfg, send)
		if _, err := sched.Run(); err != nil {
			b.Fatal(err)
		}
	}
	transfer() // warm the pools
	received = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transfer()
	}
	b.StopTimer()
	if want := b.N * pieces * (len(head) + opaque); received != want {
		b.Fatalf("delivered %d bytes, want %d", received, want)
	}
}
