package quicsim

import (
	"fmt"

	"h3cdn/internal/simnet"
)

type peerKey struct {
	addr simnet.Addr
	port uint16
}

// Endpoint is a server-side QUIC listener: it owns a UDP port and
// demultiplexes datagrams to per-peer connections.
type Endpoint struct {
	host    *simnet.Host
	port    uint16
	cfg     ServerConfig
	accept  func(*Conn)
	conns   map[peerKey]*Conn
	nextCID uint64
	closed  bool
}

// Listen binds a QUIC server endpoint on host:port. accept fires when a
// new connection's ClientHello is processed (its ServerName is known and
// 0-RTT stream data has not yet been delivered).
func Listen(host *simnet.Host, port uint16, cfg ServerConfig, accept func(*Conn)) (*Endpoint, error) {
	e := &Endpoint{
		host:    host,
		port:    port,
		cfg:     cfg,
		accept:  accept,
		conns:   make(map[peerKey]*Conn),
		nextCID: 1,
	}
	e.cfg.Config = cfg.Config.withDefaults()
	if err := host.Bind(port, e.handlePacket); err != nil {
		return nil, fmt.Errorf("quicsim: listen: %w", err)
	}
	return e, nil
}

// Close unbinds the port and aborts all live connections.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.host.Unbind(e.port)
	for _, c := range e.conns {
		c.endpoint = nil
		c.Abort()
	}
	e.conns = make(map[peerKey]*Conn)
}

func (e *Endpoint) handlePacket(pkt simnet.Packet) {
	p, ok := pkt.Payload.(*packet)
	if !ok {
		return
	}
	key := peerKey{pkt.Src, pkt.SrcPort}
	c, ok := e.conns[key]
	if ok && p.dcid != 0 && p.dcid != c.cid {
		// The sender is a previous incarnation of this 4-tuple — the
		// client's ephemeral port was recycled and late packets from
		// the dead connection (close probes, delayed ACKs) are still
		// arriving. They must not reach the current connection.
		c, ok = nil, false
	}
	if ok && c.chSeen {
		if ch := clientHelloIn(p); ch != nil && ch.nonce != c.chNonce {
			// A fresh handshake on a 4-tuple whose previous owner never
			// closed cleanly (its CONNECTION_CLOSE was lost): retire the
			// stale connection silently and accept the new one below.
			c.teardown()
			c, ok = nil, false
		}
	}
	if !ok {
		if !hasClientHello(p) {
			// Unknown connection: stateless close so the peer
			// releases its state — unless the packet is itself a
			// close (avoid close loops).
			if p.close == nil {
				reply := newPacket(e.cfg.Pools)
				reply.close = closeAborted
				// Echo the sender's connection ID so only that (dead)
				// connection matches; a new conn on a recycled port
				// ignores the mismatched close.
				reply.dcid = p.dcid
				e.host.Send(e.port, pkt.Src, pkt.SrcPort, reply.wireSize(), reply)
			}
			return
		}
		c = newConn(e.host, pkt.Src, e.cfg.Config)
		c.scfg = e.cfg
		c.remotePort = pkt.SrcPort
		c.localPort = e.port
		c.endpoint = e
		c.hsStart = c.sched.Now()
		c.cid = e.nextCID
		e.nextCID++
		e.conns[key] = c
	}
	c.handlePacket(p)
}

func (e *Endpoint) remove(addr simnet.Addr, port uint16) {
	delete(e.conns, peerKey{addr, port})
}

func hasClientHello(p *packet) bool { return clientHelloIn(p) != nil }

// clientHelloIn returns the packet's ClientHello frame, if any.
func clientHelloIn(p *packet) *clientHelloFrame {
	for _, f := range p.frames {
		if ch, ok := f.(*clientHelloFrame); ok {
			return ch
		}
	}
	return nil
}
