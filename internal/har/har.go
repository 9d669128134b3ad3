// Package har defines the HAR-like log structures the simulated browser
// produces — the same per-entry timing phases (blocked, connect, send,
// wait, receive) that the paper extracts from Chrome-HAR files, plus the
// connection bookkeeping (reused / resumed) its analyses depend on.
package har

import "time"

// Entry records one resource load.
type Entry struct {
	URL      string `json:"url"`
	Host     string `json:"host"`
	Path     string `json:"path"`
	Protocol string `json:"protocol"` // "http/1.1", "h2", "h3"
	Status   int    `json:"status"`
	BodySize int    `json:"bodySize"`

	// Header carries the response headers (input to locedge).
	Header map[string]string `json:"header,omitempty"`

	// Started is the virtual time the browser issued the request.
	Started time.Duration `json:"started"`

	// Timing phases. Connect covers transport + TLS handshakes and is
	// zero for requests on a reused connection — the paper's reuse
	// detector (§VI-C). SSL is the TLS portion of Connect per HAR 1.2
	// semantics: it is included in Connect, never additional to it, so
	// the pre-split combined value remains reconcilable as Connect
	// itself and the transport-only part as Connect-SSL. For H3 the
	// integrated QUIC handshake is attributed entirely to SSL.
	Blocked time.Duration `json:"blocked"`
	Connect time.Duration `json:"connect"`
	SSL     time.Duration `json:"ssl,omitempty"`
	Wait    time.Duration `json:"wait"`
	Receive time.Duration `json:"receive"`

	// ReusedConn marks requests multiplexed onto an existing
	// connection. ResumedConn marks requests whose connection was
	// established via TLS/QUIC session resumption (§VI-D).
	ReusedConn  bool `json:"reusedConn"`
	ResumedConn bool `json:"resumedConn"`

	// Failed records transport errors (excluded from timing analyses,
	// matching the paper's treatment of incomplete entries). Retries
	// counts transparent re-fetches after transport errors; an entry is
	// Failed only once the retry budget is exhausted. Both are zero —
	// and absent from the serialized form — on healthy paths, keeping
	// fixed-seed baseline datasets byte-identical.
	Failed  bool   `json:"failed,omitempty"`
	Error   string `json:"error,omitempty"`
	Retries int    `json:"retries,omitempty"`
}

// PageLog aggregates one page visit.
type PageLog struct {
	Site     string  `json:"site"`
	Protocol string  `json:"protocol"` // browsing mode: "h2" or "h3"
	Probe    string  `json:"probe"`
	Entries  []Entry `json:"entries"`

	// PLT is the page load time: visit start to last entry completion
	// (the onLoad analogue for the simulated loader).
	PLT time.Duration `json:"plt"`

	// ReusedConns / ResumedConns count entries with the respective
	// connection state, as the paper counts them.
	ReusedConns  int `json:"reusedConns"`
	ResumedConns int `json:"resumedConns"`
}

// Recount recomputes the aggregate counters from the entries.
func (p *PageLog) Recount() {
	p.ReusedConns, p.ResumedConns = 0, 0
	for i := range p.Entries {
		if p.Entries[i].ReusedConn {
			p.ReusedConns++
		}
		if p.Entries[i].ResumedConn {
			p.ResumedConns++
		}
	}
}

// Log is a collection of page visits (one measurement campaign).
type Log struct {
	Seed  uint64    `json:"seed"`
	Pages []PageLog `json:"pages"`
}
