package quicsim

import "h3cdn/internal/cc"

// Token is a client-held session token enabling QUIC resumption and
// 0-RTT (the QUIC analogue of a TLS 1.3 session ticket).
type Token struct {
	ID         uint64
	ServerName string
}

// TokenStore caches session tokens by server name — the browser-side
// QUIC session cache that survives across page visits.
type TokenStore struct {
	byName map[string]Token
}

// NewTokenStore returns an empty session cache.
func NewTokenStore() *TokenStore {
	return &TokenStore{byName: make(map[string]Token)}
}

// Get returns the token for serverName, if any.
func (s *TokenStore) Get(serverName string) (Token, bool) {
	t, ok := s.byName[serverName]
	return t, ok
}

// Put stores a token, replacing any previous one for the same name.
func (s *TokenStore) Put(t Token) { s.byName[t.ServerName] = t }

// Clear drops all tokens; the map keeps its storage for the next Put.
func (s *TokenStore) Clear() { clear(s.byName) }

// ServerSessions is the server-side token registry shared by all
// connections of one server. Alongside validity it caches the path's
// congestion window at connection close, enabling cwnd (bandwidth)
// resumption on the next connection from the same client — the RFC 9002
// Appendix B / Chromium "bandwidth resumption" optimization that lets
// returning visitors skip slow start.
type ServerSessions struct {
	// cwnds[id-1] is the cwnd cached under token id (0 = none yet). It
	// issues tokens 1, 2, … and revokes none, so the issued ones are
	// exactly 1 … len(cwnds).
	cwnds []float64
}

// NewServerSessions returns an empty registry.
func NewServerSessions() *ServerSessions { return &ServerSessions{} }

func (s *ServerSessions) issue() uint64 {
	s.cwnds = append(s.cwnds, 0)
	return uint64(len(s.cwnds))
}

func (s *ServerSessions) valid(id uint64) bool { return 0 < id && id <= uint64(len(s.cwnds)) }

// storeCwnd caches the closing connection's congestion window under the
// token it issued.
func (s *ServerSessions) storeCwnd(id uint64, cwnd float64) {
	if s.valid(id) {
		s.cwnds[id-1] = cwnd
	}
}

// resumeCwnd restarts w from the cwnd cached under a presented token,
// capped at limit, when that beats w's window: bandwidth resumption skips
// slow start on the validated path. TCP has no counterpart. A token it
// never issued changes nothing.
func (s *ServerSessions) resumeCwnd(id uint64, w *cc.Window, limit float64) {
	if !s.valid(id) {
		return
	}
	if cached := s.cwnds[id-1]; cached > w.Cwnd {
		w.Cwnd = min(cached, limit)
		w.Ssthresh = w.Cwnd
	}
}
