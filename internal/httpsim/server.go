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
	// Pools, when non-nil, supplies the universe's shared allocation
	// arenas (transport records, buffers, header caches, stream states).
	// Nil gets a private one.
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
}

// StartServer binds the listeners on host.
func StartServer(host *simnet.Host, cfg ServerConfig) (*Server, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("httpsim: StartServer: %w: nil handler", ErrNotSupported)
	}
	cfg.Pools = orPrivate(cfg.Pools)
	s := &Server{host: host, cfg: cfg}

	tcpCfg := tcpsim.Config{Trace: cfg.Trace, Pools: &cfg.Pools.TCP, Arena: &cfg.Pools.Arena}
	tcpL, err := tcpsim.Listen(host, TCPPort, tcpCfg, func(tc *tcpsim.Conn) {
		var tconn *tlssim.Conn
		tconn = tlssim.Server(tc, tlssim.ServerConfig{
			Sessions:     cfg.TLSSessions,
			Sched:        host.Scheduler(),
			HandshakeCPU: cfg.HandshakeCPU,
			Arena:        &cfg.Pools.Arena,
			RecvArena:    &cfg.Pools.Recv,
			Trace:        cfg.Trace,
			TraceConn:    tc.TraceID(),
		}, func(err error) {
			if err != nil {
				return
			}
			switch tconn.ALPN() {
			case H2.ALPN():
				newH2ServerConn(tconn, cfg.Handler, cfg.Pools)
			default:
				newH1ServerConn(tconn, cfg.Handler, cfg.Pools)
			}
		})
	})
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

// SupportsH3 reports whether the server listens for HTTP/3.
func (s *Server) SupportsH3() bool { return s.quic != nil }

// Close shuts down all listeners and live connections.
func (s *Server) Close() {
	if s.tcp != nil {
		s.tcp.Close()
	}
	if s.quic != nil {
		s.quic.Close()
	}
}
