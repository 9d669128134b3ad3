// Package tlssim simulates the TLS handshake and record layer over a
// bytestream.Stream: TLS 1.2 (two round trips), TLS 1.3 (one round trip),
// TLS 1.3 session-ticket resumption, and 0-RTT early data. Handshake
// messages are real bytes on the simulated wire, so handshake latency is
// an emergent property of the underlying transport path.
//
// Simplifications (documented in DESIGN.md): no actual cryptography —
// message sizes approximate real flights; TLS 1.2 session resumption is
// omitted (the reproduction uses TLS 1.3 under HTTP/2); early data is
// always accepted when the client holds any ticket for the server.
package tlssim

import (
	"encoding/binary"
	"errors"
	"time"
)

// Version selects the simulated TLS protocol version.
type Version uint8

const (
	// TLS12 performs the classic two-round-trip handshake.
	TLS12 Version = iota + 1
	// TLS13 performs the one-round-trip handshake with tickets.
	TLS13
)

func (v Version) String() string {
	switch v {
	case TLS12:
		return "TLS 1.2"
	case TLS13:
		return "TLS 1.3"
	default:
		return "TLS ?"
	}
}

// Record types on the wire.
type recordType uint8

const (
	recClientHello recordType = iota + 1
	recServerHello12
	recServerHello13
	recClientKeyExchange
	recServerFinished12
	recAppData
)

// Approximate flight sizes in bytes (payload, before the 5-byte record
// header), matching typical real-world handshakes with a certificate
// chain of ~3 KB.
const (
	sizeClientHello    = 512
	sizeServerHello13  = 2900
	sizeServerHello12  = 3100
	sizeClientKeyExch  = 130
	sizeServerFinished = 64

	recordHeader = 5
	recordTag    = 24 // AEAD tag + padding overhead per app-data record
	maxRecord    = 16 * 1024

	// carrySize is the one size a split-record carry is taken at: a
	// capped record with its header and tag (see Conn.release).
	carrySize = recordHeader + maxRecord + recordTag
)

// Errors reported through handshake and close callbacks.
var (
	ErrHandshakeAborted = errors.New("tlssim: handshake aborted")
	ErrBadRecord        = errors.New("tlssim: malformed record")
)

// Ticket is a client-held session ticket enabling TLS 1.3 resumption.
type Ticket struct {
	ID         uint64
	ServerName string
}

// TicketStore caches tickets by server name. It is the client-side
// session cache a browser keeps across page visits. The zero value is
// not usable; use NewTicketStore.
type TicketStore struct {
	byName map[string]Ticket
}

// NewTicketStore returns an empty session cache.
func NewTicketStore() *TicketStore {
	return &TicketStore{byName: make(map[string]Ticket)}
}

// Get returns the ticket for serverName, if any.
func (s *TicketStore) Get(serverName string) (Ticket, bool) {
	t, ok := s.byName[serverName]
	return t, ok
}

// Put stores a ticket, replacing any previous one for the same name.
func (s *TicketStore) Put(t Ticket) { s.byName[t.ServerName] = t }

// Clear drops all tickets; the map keeps its storage for the next Put.
func (s *TicketStore) Clear() { clear(s.byName) }

// ServerSessionState is the server-side ticket registry, shared by all
// connections of one server (one CDN edge in this reproduction). It
// issues IDs 1, 2, … and revokes none, so the issued ones are exactly
// those below nextID.
type ServerSessionState struct {
	nextID uint64
}

// NewServerSessionState returns an empty registry.
func NewServerSessionState() *ServerSessionState {
	return &ServerSessionState{nextID: 1}
}

func (s *ServerSessionState) issue() uint64 {
	id := s.nextID
	s.nextID++
	return id
}

func (s *ServerSessionState) valid(id uint64) bool { return 0 < id && id < s.nextID }

// --- wire encoding ---

// clientHello fields carried at the head of the ClientHello payload.
type clientHello struct {
	version    Version
	ticketID   uint64 // 0 = none
	earlyData  bool
	serverName string
	alpn       string
}

// fieldsLen is the length of the fields put writes.
func (ch clientHello) fieldsLen() int { return 1 + 8 + 1 + 2 + len(ch.serverName) + 1 + len(ch.alpn) }

// size is the ClientHello payload length: the typical flight, or what
// the fields need when a long name exceeds it.
func (ch clientHello) size() int { return max(sizeClientHello, ch.fieldsLen()) }

// put writes the fields into a fieldsLen()-byte buffer: every byte a
// decoder reads. The padding behind them in the payload is opaque.
func (ch clientHello) put(buf []byte) {
	buf[0] = byte(ch.version)
	binary.BigEndian.PutUint64(buf[1:9], ch.ticketID)
	buf[9] = 0
	if ch.earlyData {
		buf[9] = 1
	}
	binary.BigEndian.PutUint16(buf[10:12], uint16(len(ch.serverName)))
	copy(buf[12:], ch.serverName)
	off := 12 + len(ch.serverName)
	buf[off] = byte(len(ch.alpn))
	copy(buf[off+1:], ch.alpn)
}

// decodeClientHello reads the fields put wrote, taking the server name
// from names (Pools.serverName).
func decodeClientHello(p []byte, names *Pools) (clientHello, error) {
	if len(p) < 12 {
		return clientHello{}, ErrBadRecord
	}
	nameLen := int(binary.BigEndian.Uint16(p[10:12]))
	if len(p) < 12+nameLen+1 {
		return clientHello{}, ErrBadRecord
	}
	alpnOff := 12 + nameLen
	alpnLen := int(p[alpnOff])
	if len(p) < alpnOff+1+alpnLen {
		return clientHello{}, ErrBadRecord
	}
	return clientHello{
		version:    Version(p[0]),
		ticketID:   binary.BigEndian.Uint64(p[1:9]),
		earlyData:  p[9] == 1,
		serverName: names.serverName(p[12 : 12+nameLen]),
		alpn:       alpnToken(p[alpnOff+1 : alpnOff+1+alpnLen]),
	}, nil
}

// alpnToken returns b as a string, allocating nothing for the tokens the
// simulator's HTTP versions send.
func alpnToken(b []byte) string {
	switch string(b) {
	case "h2":
		return "h2"
	case "http/1.1":
		return "http/1.1"
	}
	return string(b)
}

// serverHello13 fields: resumption verdict and a fresh ticket.
type serverHello13 struct {
	resumed     bool
	newTicketID uint64
}

// serverHello13Fields is the length of the fields serverHello13.put
// writes at the head of its sizeServerHello13-byte payload.
const serverHello13Fields = 9

// put writes the fields into a serverHello13Fields-byte buffer (opaque
// padding behind them, as with clientHello.put).
func (sh serverHello13) put(buf []byte) {
	buf[0] = 0
	if sh.resumed {
		buf[0] = 1
	}
	binary.BigEndian.PutUint64(buf[1:9], sh.newTicketID)
}

func decodeServerHello13(p []byte) (serverHello13, error) {
	if len(p) < serverHello13Fields {
		return serverHello13{}, ErrBadRecord
	}
	return serverHello13{resumed: p[0] == 1, newTicketID: binary.BigEndian.Uint64(p[1:9])}, nil
}

// cpuDelay runs a handshake step for c after d on its scheduler, or at
// once when there is no delay. event is the step's stepEvent form. A
// waiting step is counted in c.steps, which keeps a pooled conn from
// being recycled under it.
func cpuDelay(c *Conn, d time.Duration, event func(any)) {
	c.steps++
	if d == 0 {
		event(c)
		return
	}
	c.sched().AfterArg(d, event, c)
}

// stepEvent runs one counted handshake step of the conn x.
func stepEvent(x any, run func(*Conn)) {
	c := x.(*Conn)
	c.steps--
	run(c)
	c.maybeRetire()
}

// completeEvent ends the handshake: the TLS 1.3 client's Finished, and
// the 0-RTT client's deferred completion.
func completeEvent(x any) { stepEvent(x, (*Conn).completeHandshake) }

// keyExchangeEvent is the TLS 1.2 client's second flight.
func keyExchangeEvent(x any) { stepEvent(x, (*Conn).sendKeyExchange) }

// serverFinished12Event is the TLS 1.2 server's Finished.
func serverFinished12Event(x any) { stepEvent(x, (*Conn).sendServerFinished12) }

// serverHello13Event is the TLS 1.3 server's flight.
func serverHello13Event(x any) { stepEvent(x, (*Conn).sendServerHello13) }

// serverHello12Event is the TLS 1.2 server's first flight.
func serverHello12Event(x any) { stepEvent(x, (*Conn).sendServerHello12) }

func (c *Conn) sendKeyExchange() {
	c.writeRecords(recClientKeyExchange, nil, sizeClientKeyExch)
}

func (c *Conn) sendServerFinished12() {
	c.writeRecords(recServerFinished12, nil, sizeServerFinished)
	c.completeHandshake()
}

// sendServerHello13 carries the server's verdict on the ClientHello's
// ticket (c.resumed) and a fresh ticket.
func (c *Conn) sendServerHello13() {
	sh := serverHello13{resumed: c.resumed}
	if c.scfg.Sessions != nil {
		sh.newTicketID = c.scfg.Sessions.issue()
	}
	c.scfg.Trace.TLSServerFlight(c.now(), c.scfg.TraceConn, int(TLS13), sh.resumed)
	if sh.newTicketID != 0 {
		c.scfg.Trace.TLSTicketIssued(c.now(), c.scfg.TraceConn, sh.newTicketID)
	}
	fields := c.arena.Get(serverHello13Fields)
	sh.put(fields)
	c.writeRecords(recServerHello13, fields, sizeServerHello13-len(fields))
	c.arena.Put(fields)
	c.completeHandshake()
}

func (c *Conn) sendServerHello12() {
	c.scfg.Trace.TLSServerFlight(c.now(), c.scfg.TraceConn, int(TLS12), false)
	c.writeRecords(recServerHello12, nil, sizeServerHello12)
}
