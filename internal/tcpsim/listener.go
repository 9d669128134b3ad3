package tcpsim

import (
	"fmt"

	"h3cdn/internal/simnet"
)

type connKey struct {
	addr simnet.Addr
	port uint16
}

// Listener accepts TCP connections on a well-known port and demultiplexes
// segments to the per-peer server connections.
type Listener struct {
	host   *simnet.Host
	port   uint16
	cfg    Config
	accept func(*Conn)
	conns  map[connKey]*Conn
	// last is the connection the last segment was demultiplexed to, so a
	// run of one peer's segments hashes no key. remove and Close clear it.
	last    *Conn
	lastKey connKey
	closed  bool
}

// Listen binds port on host. accept fires when a connection completes the
// handshake, before any of its data is delivered.
func Listen(host *simnet.Host, port uint16, cfg Config, accept func(*Conn)) (*Listener, error) {
	l := &Listener{
		host:   host,
		port:   port,
		cfg:    cfg.withDefaults(),
		accept: accept,
		conns:  make(map[connKey]*Conn),
	}
	if err := host.Bind(port, l.handlePacket); err != nil {
		return nil, fmt.Errorf("tcpsim: listen: %w", err)
	}
	return l, nil
}

// Close unbinds the port and aborts all live connections.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.host.Unbind(l.port)
	for _, c := range l.conns {
		c.listener = nil // avoid map mutation during range
		c.Abort()
	}
	l.conns = make(map[connKey]*Conn)
	l.last = nil
}

// ConnCount reports the number of tracked connections.
func (l *Listener) ConnCount() int { return len(l.conns) }

func (l *Listener) handlePacket(pkt simnet.Packet) {
	seg, ok := pkt.Payload.(*segment)
	if !ok {
		return
	}
	key := connKey{pkt.Src, pkt.SrcPort}
	c := l.last
	if c == nil || key != l.lastKey {
		c = l.conns[key]
	}
	if c == nil {
		if seg.flags&flagSYN == 0 || seg.flags&flagACK != 0 {
			// Stray non-SYN for an unknown connection: reset the
			// peer so it releases state promptly.
			if seg.flags&flagRST == 0 {
				rst := newSegment(l.cfg.Pools)
				rst.flags = flagRST
				l.host.Send(l.port, pkt.Src, pkt.SrcPort, rst.wireSize(), rst)
			}
			return
		}
		c = newConn(l.host, pkt.Src, l.cfg)
		c.remotePort = pkt.SrcPort
		c.localPort = l.port
		c.listener = l
		c.state = stateSynRcvd
		c.onEstablished = l.accept
		l.conns[key] = c
		l.last, l.lastKey = c, key
		c.synSentAt = c.sched.Now()
		c.sendFlags(flagSYN | flagACK)
		c.armRTO()
		return
	}
	l.last, l.lastKey = c, key
	c.handleSegment(seg)
}

func (l *Listener) remove(addr simnet.Addr, port uint16) {
	key := connKey{addr, port}
	delete(l.conns, key)
	if l.lastKey == key {
		l.last = nil
	}
}
