package httpsim

import (
	"fmt"
	"time"

	"h3cdn/internal/quicsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
)

// Well-known ports. The simulator gives each host a single port space, so
// the QUIC listener uses 444 by convention (standing in for UDP 443).
const (
	TCPPort  = 443
	QUICPort = 444
)

// ServerConfig configures an HTTP origin or CDN edge server.
type ServerConfig struct {
	// Handler serves every request.
	Handler Handler
	// TLSSessions enables TLS 1.3 resumption (shared across conns).
	TLSSessions *tlssim.ServerSessionState
	// QUICSessions enables QUIC resumption (shared across conns).
	QUICSessions *quicsim.ServerSessions
	// EnableH3 additionally listens for HTTP/3 on QUICPort.
	EnableH3 bool
	// HandshakeCPU models server crypto compute time per handshake.
	HandshakeCPU time.Duration
	// QUIC tunes the QUIC transport.
	QUIC quicsim.Config
	// Pools supplies the universe's shared allocation arenas (transport
	// records, buffers, header caches, stream states). Required.
	Pools *Pools
	// Trace, when non-nil, receives server-side transport events.
	// Nil-safe: every emit is a no-op when nil.
	Trace *trace.Tracer
}

// Server is a simulated HTTPS server speaking H1 and H2 (via ALPN) and
// optionally H3.
type Server struct {
	host *simnet.Host
	cfg  ServerConfig
	tcp  *tcpsim.Listener
	quic *quicsim.Endpoint
	// tlsCfg is every accepted connection's TLS configuration but its
	// TraceConn.
	tlsCfg tlssim.ServerConfig
}

// StartServer binds the listeners on host.
func StartServer(host *simnet.Host, cfg ServerConfig) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("httpsim: StartServer: %w: nil handler", ErrNotSupported)
	}
	s := &Server{host: host, cfg: cfg}
	s.tlsCfg = tlssim.ServerConfig{
		Sessions:     cfg.TLSSessions,
		Sched:        host.Scheduler(),
		HandshakeCPU: cfg.HandshakeCPU,
		Arena:        &cfg.Pools.Arena,
		RecvArena:    &cfg.Pools.Recv,
		Trace:        cfg.Trace,
		Pools:        &cfg.Pools.tls,
	}

	tcpCfg := tcpsim.Config{Trace: cfg.Trace, Pools: &cfg.Pools.TCP, Arena: &cfg.Pools.Arena}
	tcpL, err := tcpsim.Listen(host, TCPPort, tcpCfg, s.accept)
	if err != nil {
		return nil, err
	}
	s.tcp = tcpL

	if cfg.EnableH3 {
		quicCfg := cfg.QUIC
		quicCfg.Trace = cfg.Trace
		quicCfg.Pools = &cfg.Pools.QUIC
		quicE, err := quicsim.Listen(host, QUICPort, quicsim.ServerConfig{
			Config:       quicCfg,
			Sessions:     cfg.QUICSessions,
			HandshakeCPU: cfg.HandshakeCPU,
		}, func(qc *quicsim.Conn) {
			newH3Server(host.Scheduler(), qc, cfg.Handler, cfg.Pools)
		})
		if err != nil {
			tcpL.Close()
			return nil, err
		}
		s.quic = quicE
	}
	return s, nil
}

// accept starts TLS on a connected TCP conn, under a connection record
// that serves it once the handshake has picked the protocol.
func (s *Server) accept(tc *tcpsim.Conn) {
	sc := s.cfg.Pools.getServerConn(s)
	cfg := s.tlsCfg
	cfg.TraceConn = tc.TraceID()
	sc.tls = tlssim.Server(tc, cfg, sc.handshakeFn)
}

// Close shuts down all listeners and live connections.
func (s *Server) Close() {
	if s.tcp != nil {
		s.tcp.Close()
	}
	if s.quic != nil {
		s.quic.Close()
	}
}

// serverConn serves HTTP/1.1 or HTTP/2, as the handshake's ALPN picks, on
// one TLS connection. It is pooled in Pools with its callbacks bound once
// per struct, and retires as soon as its TLS conn reports the end — a
// failed handshake, the peer's close (answered with its own) or a
// failure — or the server aborts it: the TLS conn calls it no more, and
// retiring bumps the incarnation (gen), so a responder still waiting in a
// handler holds an earlier one and writes nothing — not even into the
// TLS conn, which its recycler may already have handed to another
// connection, a client's included, before this record is reset. A
// half-open connection whose peer's reset was lost never ends and is
// left to the collector.
type serverConn struct {
	srv   *Server
	tls   *tlssim.Conn
	gen   uint32 // incarnation: retire bumps it
	proto Protocol
	// req and ctx are reused across the connection's requests: dispatch
	// is synchronous from onData, and handlers copy what they need
	// before answering later.
	req Request
	ctx ServerContext

	heads headCarry // H1

	parser  blockParser  // H2
	active  []h2Response // H2: bodies being pumped
	pumping bool         // H2

	handshakeFn func(error)
	dataFn      func([]byte)
	closeFn     func(error)
	pumpFn      func()
}

// reset clears a retired record for reuse, keeping its incarnation, its
// bound callbacks, its parsers' buffers and the active array.
func (c *serverConn) reset() {
	c.parser.rewind()
	*c = serverConn{
		gen:         c.gen,
		heads:       headCarry{acc: c.heads.acc[:0]},
		parser:      c.parser,
		active:      c.active[:0],
		handshakeFn: c.handshakeFn,
		dataFn:      c.dataFn,
		closeFn:     c.closeFn,
		pumpFn:      c.pumpFn,
	}
}

// getServerConn hands out a connection record for srv.
func (pl *Pools) getServerConn(srv *Server) *serverConn {
	c, ok := pl.srv.Get(srv.host.Scheduler(), (*serverConn).reset)
	if !ok {
		c = newServerConn()
	}
	c.srv = srv
	return c
}

func newServerConn() *serverConn {
	c := &serverConn{}
	c.handshakeFn, c.dataFn, c.closeFn, c.pumpFn = c.onHandshake, c.onData, c.onClose, c.pump
	return c
}

func (c *serverConn) onHandshake(err error) {
	if err != nil {
		c.retire()
		return
	}
	c.proto = H1
	if c.tls.ALPN() == H2.ALPN() {
		c.proto = H2
	}
	c.tls.SetDataFunc(c.dataFn)
	c.tls.SetCloseFunc(c.closeFn)
	if c.proto == H2 {
		c.tls.SetDrainFunc(h2SendWatermark, c.pumpFn)
	}
}

// onClose ends the connection. A clean close from the peer is answered
// with our own FIN (passive close), so both endpoints fully release ports
// and timers.
func (c *serverConn) onClose(err error) {
	if err == nil {
		c.tls.Close()
	}
	c.retire()
}

func (c *serverConn) onData(p []byte) {
	if c.proto == H2 {
		c.onDataH2(p)
	} else {
		c.onDataH1(p)
	}
}

// abort resets a connection whose framing is lost.
func (c *serverConn) abort() {
	c.tls.Abort()
	c.retire()
}

// dispatch hands the request in c.req to the handler with a responder
// for stream id.
func (c *serverConn) dispatch(id uint32) {
	r := c.srv.cfg.Pools.getResponder(c, c.gen, id)
	c.ctx = ServerContext{Req: &c.req, Protocol: c.proto, ServerName: c.tls.ServerName(), responder: r}
	c.srv.cfg.Handler(&c.ctx, r.respondFn)
}

func (c *serverConn) incarnation() uint32 { return c.gen }

func (c *serverConn) respond(id uint32, resp Response) {
	if c.proto == H2 {
		c.respondH2(id, resp)
	} else {
		c.respondH1(resp)
	}
}

// retire lets the TLS conn go and recycles the record. It ends the
// incarnation at once: the record is reset only when it is next drawn,
// and until then a waiting responder must not reach the TLS conn.
func (c *serverConn) retire() {
	c.gen++
	c.tls.Release()
	c.tls = nil
	c.srv.cfg.Pools.srv.Retire(c, c.srv.host.Scheduler())
}
