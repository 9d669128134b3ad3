package quicsim

import (
	"slices"
	"testing"

	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
)

// wirePacket is what TestWireSizes reads off the network for one packet.
type wirePacket struct {
	size   int
	ack    []pnRange
	close  bool
	frames int
}

// TestWireSizes pins the wire size and shape of every packet kind the
// send paths build, as the network sees them: an ACK rides as the
// packet's field and costs sizeAckFrame plus 4 bytes per range (at most
// maxAckRanges), a CONNECTION_CLOSE travels alone, and a PTO probe
// copies only the probed packet's frames, never a pending ACK.
func TestWireSizes(t *testing.T) {
	writeData := func(c *Conn) {
		s := c.OpenStream()
		s.Write(make([]byte, 100))
	}
	cases := []struct {
		name  string
		recvd []uint64 // packet numbers received from the peer
		send  func(c *Conn)
		want  []wirePacket
	}{{
		name:  "ACK-only, 1 range",
		recvd: []uint64{0, 1, 2},
		send:  func(c *Conn) { c.ackQueued = true; c.trySend() },
		want:  []wirePacket{{size: 83, ack: []pnRange{{0, 2}}}},
	}, {
		name:  "ACK-only, 3 ranges",
		recvd: []uint64{0, 2, 4},
		send:  func(c *Conn) { c.ackQueued = true; c.trySend() },
		want:  []wirePacket{{size: 91, ack: []pnRange{{4, 4}, {2, 2}, {0, 0}}}},
	}, {
		name:  "ACK-only, 40 ranges capped at 32",
		recvd: evenPNs(40),
		send:  func(c *Conn) { c.ackQueued = true; c.trySend() },
		want:  []wirePacket{{size: 207, ack: descendingSingletons(78, 32)}},
	}, {
		name: "CONNECTION_CLOSE",
		send: (*Conn).Close,
		want: []wirePacket{{size: 70, close: true}},
	}, {
		name:  "data carrying an ACK",
		recvd: []uint64{0, 1, 5},
		send:  func(c *Conn) { c.ackQueued = true; writeData(c) },
		want:  []wirePacket{{size: 199, ack: []pnRange{{5, 5}, {0, 1}}, frames: 1}},
	}, {
		name:  "PTO probe",
		recvd: []uint64{0},
		send: func(c *Conn) {
			writeData(c)
			c.ackQueued = true
			c.onPTO()
		},
		want: []wirePacket{{size: 166, frames: 1}, {size: 166, frames: 1}},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.NewNetwork(&simnet.Scheduler{MaxEvents: 1000}, nil, seqrand.New(1))
			var got []wirePacket
			net.SetFilter(func(pkt simnet.Packet) bool {
				p := pkt.Payload.(*packet)
				got = append(got, wirePacket{size: pkt.Size, ack: slices.Clone(p.ack), close: p.close != nil, frames: len(p.frames)})
				return false
			})
			c := newConn(net.AddHost("h"), "", Config{Pools: &Pools{}})
			c.state = stateEstablished
			for _, pn := range tc.recvd {
				c.recvd.add(pn)
			}
			tc.send(c)
			if !slices.EqualFunc(got, tc.want, func(a, b wirePacket) bool {
				return a.size == b.size && slices.Equal(a.ack, b.ack) && a.close == b.close && a.frames == b.frames
			}) {
				t.Fatalf("sent %+v, want %+v", got, tc.want)
			}
		})
	}
}

// evenPNs returns the packet numbers 0, 2, … below 2n: n one-packet ranges.
func evenPNs(n int) []uint64 {
	pns := make([]uint64, n)
	for i := range pns {
		pns[i] = uint64(2 * i)
	}
	return pns
}

// descendingSingletons returns n one-packet ranges from top down in steps
// of 2, as an ACK of evenPNs reports them.
func descendingSingletons(top uint64, n int) []pnRange {
	out := make([]pnRange, n)
	for i := range out {
		pn := top - uint64(2*i)
		out[i] = pnRange{pn, pn}
	}
	return out
}
