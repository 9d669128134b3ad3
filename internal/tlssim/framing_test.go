package tlssim

import (
	"bytes"
	"fmt"
	"testing"
)

// transportWrite is one WriteOpaque a recordingTransport saw.
type transportWrite struct {
	head []byte
	n    int
}

// recordingTransport is a bytestream.Stream with no peer that keeps every
// write as it was made: the supplied head and the opaque count.
type recordingTransport struct {
	writes []transportWrite
	data   func([]byte)
}

func (r *recordingTransport) Write(p []byte) { r.WriteOpaque(p, 0) }
func (r *recordingTransport) WriteOpaque(head []byte, n int) {
	r.writes = append(r.writes, transportWrite{bytes.Clone(head), n})
}
func (r *recordingTransport) SetDataFunc(fn func([]byte)) { r.data = fn }
func (r *recordingTransport) SetCloseFunc(func(error))    {}
func (r *recordingTransport) Close()                      {}
func (r *recordingTransport) Abort()                      {}

// wire is what a transport given writes[from:] carries, opaque bytes
// zero.
func (r *recordingTransport) wire(from int) []byte {
	var out []byte
	for _, w := range r.writes[from:] {
		out = append(append(out, w.head...), make([]byte, w.n)...)
	}
	return out
}

// materialised is the record writer this package had before opaque
// writes: every record of plaintext built in full — header, payload,
// tag — and handed to Write. supplied[i] is how many leading bytes of
// record i a writer specified: its header and the head bytes in it.
func materialised(t recordType, plaintext []byte, headLen int) (recs [][]byte, supplied []int) {
	for pos := 0; pos < len(plaintext); {
		plen, tag := len(plaintext)-pos, 0
		if t == recAppData {
			plen, tag = min(plen, maxRecord), recordTag
		}
		rec := []byte{byte(t), byte((plen + tag) >> 16), byte((plen + tag) >> 8), byte(plen + tag), 0}
		rec = append(rec, plaintext[pos:pos+plen]...)
		recs = append(recs, append(rec, make([]byte, tag)...))
		supplied = append(supplied, recordHeader+min(max(headLen-pos, 0), plen))
		pos += plen
	}
	return recs, supplied
}

// checkFraming compares writes with the materialised records: one write
// per record, of the record's length, supplying the record's supplied
// bytes and nothing more.
func checkFraming(t *testing.T, what string, writes []transportWrite, recs [][]byte, supplied []int) {
	t.Helper()
	if len(writes) != len(recs) {
		t.Fatalf("%s: %d transport writes, want %d records", what, len(writes), len(recs))
	}
	for i, w := range writes {
		if len(w.head)+w.n != len(recs[i]) {
			t.Fatalf("%s: write %d carries %d+%d bytes, want %d", what, i, len(w.head), w.n, len(recs[i]))
		}
		if !bytes.Equal(w.head, recs[i][:supplied[i]]) {
			t.Fatalf("%s: write %d supplies % x, want % x", what, i, w.head, recs[i][:supplied[i]])
		}
	}
}

// pattern is n bytes, no two neighbours alike.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + 1)
	}
	return p
}

// handshake establishes a client and a server on one rig over recording
// transports, shuttling each side's writes to the other, and returns the
// writes of every flight in order. A 0-RTT client completes from the
// scheduler, which is drained before the first shuttle.
func handshake(t *testing.T, cfg ClientConfig, sessions *ServerSessionState) (c, s *Conn, ct *recordingTransport, flights []transportWrite) {
	t.Helper()
	r := newRig()
	ct, st := &recordingTransport{}, &recordingTransport{}
	c = Client(ct, r.clientCfg(cfg), nil)
	s = Server(st, r.serverCfg(ServerConfig{Sessions: sessions}), nil)
	r.run(t)
	cSent, sSent := 0, 0
	for i := 0; i < 4 && !(c.established && s.established); i++ {
		flights = append(flights, ct.writes[cSent:]...)
		wire := ct.wire(cSent)
		cSent = len(ct.writes)
		st.data(wire)
		flights = append(flights, st.writes[sSent:]...)
		wire = st.wire(sSent)
		sSent = len(st.writes)
		ct.data(wire)
	}
	if !c.established || !s.established {
		t.Fatalf("%v: handshake did not complete", cfg.Version)
	}
	return c, s, ct, flights
}

// TestRecordFramingUnchanged: opaque writes reach the transport as the
// records the materialising writer built, one write per record — the
// same lengths and headers, and the supplied bytes at the same offsets —
// so segmentation, and every digest above it, cannot tell them apart.
func TestRecordFramingUnchanged(t *testing.T) {
	sizes := []int{0, 1, maxRecord - 1, maxRecord, maxRecord + 1, 3*maxRecord + 10}

	t.Run("app data", func(t *testing.T) {
		c, s, ct, _ := handshake(t, ClientConfig{ServerName: "edge.example", ALPN: "h2"}, nil)
		var got []byte
		s.SetDataFunc(func(p []byte) { got = append(got, p...) })
		for _, h := range sizes {
			for _, n := range sizes {
				what := fmt.Sprintf("head %d + %d opaque", h, n)
				head := pattern(h)
				from := len(ct.writes)
				c.WriteOpaque(head, n)
				recs, supplied := materialised(recAppData, append(bytes.Clone(head), make([]byte, n)...), h)
				checkFraming(t, what, ct.writes[from:], recs, supplied)

				// The peer parses the records and finds the head in place.
				got = got[:0]
				s.onTransportData(ct.wire(from))
				if len(got) != h+n || !bytes.Equal(got[:h], head) {
					t.Fatalf("%s: peer received %d bytes, want %d starting with the head", what, len(got), h+n)
				}
			}
		}
	})

	t.Run("handshake flights", func(t *testing.T) {
		sessions, tickets := NewServerSessionState(), NewTicketStore()
		for _, tc := range []struct {
			cfg     ClientConfig
			flights int
		}{
			{ClientConfig{Version: TLS13, ServerName: "edge.example", ALPN: "h2", Tickets: tickets}, 2},
			{ClientConfig{Version: TLS13, ServerName: "edge.example", ALPN: "h2", Tickets: tickets, EnableEarlyData: true}, 2},
			{ClientConfig{Version: TLS12, ServerName: "a-much-longer-server-name.cdn.example", ALPN: "http/1.1"}, 4},
		} {
			cfg := tc.cfg
			_, _, _, flights := handshake(t, cfg, sessions)
			if len(flights) != tc.flights {
				t.Fatalf("%v: %d flights, want %d", cfg.Version, len(flights), tc.flights)
			}
			for i, w := range flights {
				what := fmt.Sprintf("%v flight %d", cfg.Version, i)
				rt := recordType(w.head[0])
				var fields []byte
				size := map[recordType]int{
					recServerHello13:     sizeServerHello13,
					recServerHello12:     sizeServerHello12,
					recClientKeyExchange: sizeClientKeyExch,
					recServerFinished12:  sizeServerFinished,
				}[rt]
				switch rt {
				case recClientHello:
					ch, err := decodeClientHello(w.head[recordHeader:], nil)
					if err != nil || ch.serverName != cfg.ServerName || ch.alpn != cfg.ALPN || ch.version != cfg.Version {
						t.Fatalf("%s: ClientHello decodes as %+v (%v)", what, ch, err)
					}
					fields, size = make([]byte, ch.fieldsLen()), ch.size()
					ch.put(fields)
				case recServerHello13:
					sh, err := decodeServerHello13(w.head[recordHeader:])
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					fields = make([]byte, serverHello13Fields)
					sh.put(fields)
				}
				if size == 0 {
					t.Fatalf("%s: unexpected record type %d", what, rt)
				}
				recs, supplied := materialised(rt, append(fields, make([]byte, size-len(fields))...), len(fields))
				checkFraming(t, what, flights[i:i+1], recs, supplied)
			}
		}
	})

	t.Run("pending writes stay opaque", func(t *testing.T) {
		r := newRig()
		ct, st := &recordingTransport{}, &recordingTransport{}
		marker := []byte("written by the handshake callback")
		var c *Conn
		c = Client(ct, r.clientCfg(ClientConfig{ServerName: "edge.example"}), func(error) { c.Write(marker) })
		head := pattern(100)
		c.WriteOpaque(head, maxRecord+5)
		from := len(ct.writes)
		if from != 1 {
			t.Fatalf("%d writes before the handshake, want the ClientHello alone", from)
		}
		Server(st, r.serverCfg(ServerConfig{}), nil)
		st.data(ct.wire(0))
		ct.data(st.wire(0))
		r.run(t)
		if !c.established {
			t.Fatal("handshake did not complete")
		}
		// Queued before the handshake, the write keeps its head and its
		// opaque count: the replayed records supply the same bytes as
		// the same write made after the handshake. They go out before
		// anything the handshake callback writes.
		plain := append(bytes.Clone(head), make([]byte, maxRecord+5)...)
		recs, supplied := materialised(recAppData, plain, len(head))
		replayed := ct.writes[from : from+len(recs)]
		checkFraming(t, "pending flush", replayed, recs, supplied)
		markerRecs, markerSupplied := materialised(recAppData, marker, len(marker))
		checkFraming(t, "handshake callback write", ct.writes[from+len(recs):], markerRecs, markerSupplied)
		after := len(ct.writes)
		c.WriteOpaque(head, maxRecord+5)
		for i, w := range ct.writes[after:] {
			if r := replayed[i]; len(r.head) != len(w.head) || r.n != w.n {
				t.Fatalf("pending write %d: %d supplied + %d opaque, the same write after the handshake %d + %d",
					i, len(r.head), r.n, len(w.head), w.n)
			}
		}
	})
}
