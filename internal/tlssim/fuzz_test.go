package tlssim

import (
	"bytes"
	"testing"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/bytestream"
	"h3cdn/internal/simnet"
)

// stubTransport is a bytestream.Stream with no peer: the test plays the
// network through the callbacks the Conn registers, and what the Conn
// writes is kept for building seeds.
type stubTransport struct {
	data  func([]byte)
	wrote []byte
}

func (s *stubTransport) Write(p []byte) { s.WriteOpaque(p, 0) }
func (s *stubTransport) WriteOpaque(head []byte, n int) {
	s.wrote = append(append(s.wrote, head...), make([]byte, n)...)
}
func (s *stubTransport) SetDataFunc(fn func([]byte)) { s.data = fn }
func (s *stubTransport) SetCloseFunc(func(error))    {}
func (s *stubTransport) Close()                      {}
func (s *stubTransport) Abort()                      {}

// FuzzRecords pins the record layer's receive path against a hostile
// peer: arbitrary bytes in arbitrary pieces never panic a client or a
// server Conn; its carry always holds less than one capped record, and
// after a piece that ends on a record boundary it holds no receive
// buffer at all; it hands the data callback the same plaintext, in the
// same calls, as one delivery of the same bytes; and after Abort
// everything it took from its arenas is back. A replay at the same cuts
// feeds every zero run in an app-data record's payload, where a writer
// may leave bytes opaque, as bytestream.Opaque runs of at most a TCP
// MSS: it must make the
// same calls, with the same plaintext wherever the bytes were supplied.
// The seeds (both sides' real flights, and one of each malformation) run
// under plain go test.
func FuzzRecords(f *testing.F) {
	r := newRig()
	var cli, srv stubTransport
	c := Client(&cli, r.clientCfg(ClientConfig{ServerName: "edge.example", ALPN: "h2"}), nil)
	hello := append([]byte(nil), cli.wrote...)
	s := Server(&srv, r.serverCfg(ServerConfig{}), nil)
	srv.data(hello)
	flight := append([]byte(nil), srv.wrote...)
	cli.wrote, srv.wrote = nil, nil
	cli.data(flight)
	r.run(f)
	c.Write(make([]byte, maxRecord+100)) // two app-data records
	s.Write([]byte("response"))
	if !c.established || !s.established || len(cli.wrote) == 0 || len(srv.wrote) == 0 {
		f.Fatal("seed handshake did not establish")
	}
	var hello12 stubTransport
	Client(&hello12, r.clientCfg(ClientConfig{Version: TLS12, ServerName: "edge.example"}), nil)

	f.Add(append(hello, cli.wrote...), uint16(7), uint16(600))
	f.Add(append(flight, srv.wrote...), uint16(2905), uint16(2906))
	f.Add(hello12.wrote, uint16(0), uint16(0))
	f.Add([]byte{byte(recServerHello12), 0, 0, 1, 0, 0, byte(recServerFinished12), 0, 0, 0, 0}, uint16(6), uint16(6))
	// 16 MB announced with more than a capped record behind it: refused, not buffered.
	f.Add(append([]byte{byte(recAppData), 0xff, 0xff, 0xff, 0}, make([]byte, 2*maxRecord)...), uint16(3), uint16(5))
	f.Add([]byte{byte(recAppData), 0, 0, 3, 0, 1, 2, 3}, uint16(1), uint16(2))        // shorter than its tag
	f.Add([]byte{0x7f, 0, 0, 1, 0, 0}, uint16(0), uint16(9))                          // unknown type
	f.Add([]byte{byte(recClientHello), 0, 0, 4, 0, 3, 0, 0, 0}, uint16(4), uint16(4)) // truncated hello
	f.Add([]byte{}, uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, raw []byte, cut1, cut2 uint16) {
		a, b := int(cut1)%(len(raw)+1), int(cut2)%(len(raw)+1)
		if a > b {
			a, b = b, a
		}
		bounds := recordBoundaries(raw)
		opaque, plainOpaque := opaqueZeros(raw)
		for _, client := range []bool{true, false} {
			sched := &simnet.Scheduler{MaxEvents: 1_000_000}
			var wire, recv bufpool.Arena
			split := newFuzzConn(sched, client, &wire, &recv)
			end := 0
			for _, piece := range [][]byte{raw[:a], raw[a:b], raw[b:]} {
				split.tr.data(piece)
				end += len(piece)
				if len(split.c.carry) >= carrySize {
					t.Fatalf("client=%v: a %d-byte carry after a delivery, not less than one capped record", client, len(split.c.carry))
				}
				if bounds[end] && split.c.carry != nil {
					t.Fatalf("client=%v: the piece ending at %d ends on a record boundary, but the Conn holds a receive buffer", client, end)
				}
			}
			whole := newFuzzConn(sched, client, &bufpool.Arena{}, &bufpool.Arena{})
			whole.tr.data(raw)
			var opqRecv bufpool.Arena
			opq := newFuzzConn(sched, client, &bufpool.Arena{}, &opqRecv)
			for _, cut := range [][2]int{{0, a}, {a, b}, {b, len(raw)}} {
				for i := cut[0]; i < cut[1]; {
					j := i + 1
					for j < cut[1] && opaque[j] == opaque[i] && (!opaque[i] || j-i < 1460) {
						j++
					}
					if opaque[i] {
						opq.tr.data(bytestream.Opaque(j - i))
					} else {
						opq.tr.data(raw[i:j])
					}
					i = j
				}
			}
			if _, err := sched.Run(); err != nil {
				t.Fatalf("client=%v: scheduler: %v", client, err)
			}
			split.flush()
			whole.flush()
			opq.flush()
			if !bytes.Equal(split.plain, whole.plain) || split.calls != whole.calls {
				t.Fatalf("client=%v: split delivery gave %d plaintext bytes in %d calls, one delivery %d in %d",
					client, len(split.plain), split.calls, len(whole.plain), whole.calls)
			}
			if len(opq.plain) != len(whole.plain) || opq.calls != whole.calls {
				t.Fatalf("client=%v: opaque replay gave %d plaintext bytes in %d calls, one delivery %d in %d",
					client, len(opq.plain), opq.calls, len(whole.plain), whole.calls)
			}
			for i := range opq.plain {
				if !plainOpaque[i] && opq.plain[i] != whole.plain[i] {
					t.Fatalf("client=%v: opaque replay changed supplied plaintext byte %d", client, i)
				}
			}
			split.c.Abort()
			opq.c.Abort()
			if _, err := sched.Run(); err != nil {
				t.Fatalf("client=%v: scheduler after Abort: %v", client, err)
			}
			for _, st := range []bufpool.ArenaStats{recv.Stats(), opqRecv.Stats()} {
				if st.Gets != st.Puts {
					t.Fatalf("client=%v: carry arena gets %d != puts %d after Abort", client, st.Gets, st.Puts)
				}
			}
			if st := wire.Stats(); st.Gets != st.Puts {
				t.Fatalf("client=%v: wire arena gets %d != puts %d after Abort", client, st.Gets, st.Puts)
			}
		}
	})
}

// fuzzConn is one side of FuzzRecords: a Conn, on a stub transport and
// the iteration's scheduler, that records the plaintext it hands its data
// callback. A client has its
// callback from the start; a server gets it only at flush, so what it
// received before is buffered and flushed in one go.
type fuzzConn struct {
	c     *Conn
	tr    stubTransport
	plain []byte
	calls int
}

func newFuzzConn(sched *simnet.Scheduler, client bool, wire, recv *bufpool.Arena) *fuzzConn {
	fc := &fuzzConn{}
	if client {
		fc.c = Client(&fc.tr, ClientConfig{ServerName: "edge.example", ALPN: "h2", Sched: sched, Arena: wire, RecvArena: recv}, nil)
		fc.c.SetDataFunc(fc.onData)
	} else {
		fc.c = Server(&fc.tr, ServerConfig{Sched: sched, Arena: wire, RecvArena: recv}, nil)
	}
	fc.c.Write([]byte("queued until the handshake allows it"))
	return fc
}

func (fc *fuzzConn) onData(p []byte) {
	fc.plain = append(fc.plain, p...)
	fc.calls++
}

func (fc *fuzzConn) flush() {
	if !fc.c.isClient {
		fc.c.SetDataFunc(fc.onData)
	}
}

// opaqueZeros marks the bytes of raw a replay feeds as opaque runs: the
// zero bytes in the payload of each app-data record, as far as raw parses
// as well-formed records. A writer supplies every record header and
// handshake field, so only app data may hold opaque bytes. plain marks
// the same bytes in the plaintext the records deliver, tags stripped.
func opaqueZeros(raw []byte) (opaque, plain []bool) {
	opaque = make([]bool, len(raw))
	for off := 0; ; {
		n := recordSize(raw[off:])
		if n <= 0 || off+n > len(raw) {
			return opaque, plain
		}
		if recordType(raw[off]) == recAppData && n-recordHeader >= recordTag {
			for i := off + recordHeader; i < off+n; i++ {
				opaque[i] = raw[i] == 0
			}
			plain = append(plain, opaque[off+recordHeader:off+n-recordTag]...)
		}
		off += n
	}
}

// recordBoundaries marks every offset of raw at which a record ends,
// and 0, as far as raw parses as well-formed records.
func recordBoundaries(raw []byte) map[int]bool {
	bounds := map[int]bool{0: true}
	for off := 0; ; {
		n := recordSize(raw[off:])
		if n <= 0 || off+n > len(raw) {
			return bounds
		}
		off += n
		bounds[off] = true
	}
}
