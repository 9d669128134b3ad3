// Package browser implements the simulated page loader: it resolves each
// resource's hostname to a server, pools connections per protocol the way
// Chrome does (six HTTP/1.1 connections per host; one HTTP/2 and one
// HTTP/3 connection per hostname),
// learns H3 support via Alt-Svc (preconnecting QUIC in the background),
// loads resources in staged discovery waves, carries TLS-ticket and
// QUIC-token session caches across page visits, and emits HAR-like logs
// with the blocked/connect/wait/receive phases the paper analyzes.
package browser

import (
	"sort"
	"time"

	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/trace"
	"h3cdn/internal/webgen"
)

// Mode selects the browsing protocol policy, mirroring the paper's two
// Chrome instances (§III-B) plus an HTTP/1.1-only ablation.
type Mode uint8

const (
	// ModeH2 disables QUIC: every request uses HTTP/2 (or H1 where
	// configured).
	ModeH2 Mode = iota + 1
	// ModeH3 prefers HTTP/3 for hosts that support it (Alt-Svc known
	// from the warm-up visit), falling back to HTTP/2.
	ModeH3
	// ModeH1 forces HTTP/1.1 everywhere (baseline ablation).
	ModeH1
)

func (m Mode) String() string {
	switch m {
	case ModeH2:
		return "h2"
	case ModeH3:
		return "h3"
	case ModeH1:
		return "http/1.1"
	default:
		return "?"
	}
}

// Endpoint is the resolver's answer for one hostname.
type Endpoint struct {
	// Addr is the serving host on the simulated network (a CDN edge or
	// an origin server).
	Addr simnet.Addr
	// SupportsH3 reports H3 availability at that hostname.
	SupportsH3 bool
	// H3Preloaded marks hosts whose H3 support the browser knows ahead
	// of any response (Chrome's built-in QUIC hints for Google
	// properties); others require per-visit Alt-Svc discovery.
	H3Preloaded bool
	// H1Only marks servers stuck on HTTP/1.x (no H2, no H3).
	H1Only bool
}

// Resolver maps hostnames to endpoints (warm DNS: zero lookup cost,
// matching the paper's repeat-visit protocol).
type Resolver func(host string) (Endpoint, bool)

// Config tunes the browser.
type Config struct {
	// Mode is the protocol policy.
	Mode Mode
	// Resolver is required.
	Resolver Resolver
	// EnableEarlyData / EnableZeroRTT allow 0-RTT on resumed
	// connections.
	EnableEarlyData bool
	EnableZeroRTT   bool
	// HandshakeCPU models client crypto compute time.
	HandshakeCPU time.Duration
	// TLS12 forces the legacy 2-round-trip TLS handshake for H1/H2
	// connections — the paper's 3-RTT "H2 + TLS/1.2" baseline suite
	// (ablation knob; default is TLS 1.3).
	TLS12 bool
	// MaxFetchRetries bounds transparent re-fetches of a resource after
	// a transport error (the dead connection is evicted from the pool
	// and the retry dials fresh). Default 2; negative disables retries.
	// Healthy paths never hit this, so the default changes nothing on
	// baseline runs.
	MaxFetchRetries int
	// Recovery, when non-nil, receives transport loss-recovery counters
	// from every connection this browser opens, plus its own fetch-retry
	// count.
	Recovery *simnet.RecoveryStats
	// Pools, when non-nil, supplies the universe's shared allocation
	// arenas, threaded into every connection this browser opens. The
	// universe rewinds them at visit boundaries. Nil gets a private one.
	Pools *httpsim.Pools
	// Trace, when non-nil, receives browser-level fetch lifecycle events
	// and is threaded into every connection this browser opens. Nil-safe:
	// every emit is a no-op when nil.
	Trace *trace.Tracer
}

// Browser loads pages from one probe host.
type Browser struct {
	host  *simnet.Host
	sched *simnet.Scheduler
	cfg   Config

	tickets *tlssim.TicketStore
	tokens  *quicsim.TokenStore
	altSvc  map[string]bool // hosts whose H3 support has been discovered

	conns map[string]*pooledConn   // h2/h3 pools
	h1    map[string][]*pooledConn // h1 pools per address

	// keyBuf assembles pool-key lookups without allocating; freeConns
	// recycles pooledConn records reclaimed by CloseAll (safe: fetch
	// states drop their pc references before the next visit's dials).
	keyBuf    []byte
	freeConns []*pooledConn
	closeKeys []string

	// Per-fetch state arena. Finished states are reclaimed at the next
	// visit start — by then the scheduler has run dry, so no transport
	// callback can still reference them; unfinished states (a visit cut
	// short by a scheduler error) are never reused.
	freeStates []*fetchState
	liveStates []*fetchState

	// fetchSeq numbers fetches for trace correlation (monotonic across
	// visits; incremented only when tracing is active).
	fetchSeq int64

	stats Stats
}

// sharedReqHeader is the constant header set every browser request
// carries. httpsim treats Request.Header as read-only, so one immutable
// map serves all requests.
var sharedReqHeader = map[string]string{"accept": "*/*", "user-agent": "simbrowser/1.0"}

// fetchState carries one resource fetch across its transport callbacks
// and retries. States are pooled per browser: the four RequestEvents
// closures are bound once, when the state object is first created, and
// every later fetch through the same object reuses them — the hot path
// allocates neither closures nor request structs.
type fetchState struct {
	b       *Browser
	res     *webgen.Resource
	ep      Endpoint
	entry   *har.Entry
	attempt int
	done    func() // wave barrier callback
	pc      *pooledConn

	finished       bool
	creator        bool
	h3Discoverable bool
	seq            int64
	sentAt         time.Duration
	firstByte      time.Duration

	req    httpsim.Request
	events httpsim.RequestEvents
}

func (b *Browser) newFetchState() *fetchState {
	if n := len(b.freeStates); n > 0 {
		st := b.freeStates[n-1]
		b.freeStates = b.freeStates[:n-1]
		return st
	}
	st := &fetchState{b: b}
	st.req.Header = sharedReqHeader
	st.events = httpsim.RequestEvents{
		OnSent:     st.onSent,
		OnHeaders:  st.onHeaders,
		OnComplete: st.onComplete,
		OnError:    st.onError,
	}
	return st
}

// reclaimStates returns finished fetch states to the free list.
func (b *Browser) reclaimStates() {
	live := b.liveStates[:0]
	for _, st := range b.liveStates {
		if st.finished {
			st.res, st.entry, st.done, st.pc = nil, nil, nil, nil
			b.freeStates = append(b.freeStates, st)
		} else {
			live = append(live, st)
		}
	}
	b.liveStates = live
}

// Stats counts browser-level activity across visits.
type Stats struct {
	ConnsOpened    int64
	H3Conns        int64
	H2Conns        int64
	H1Conns        int64
	ResumedConns   int64
	Requests       int64
	RetriedEntries int64
	FailedEntries  int64
}

type pooledConn struct {
	conn   httpsim.ClientConn
	used   int           // requests assigned so far
	dialAt time.Duration // when the dial was initiated
	key    string        // h2/h3 pool key, for eviction on error
	h1Host string        // h1 pool key, for eviction on error
}

const (
	// maxH1ConnsPerHost caps parallel H1 connections (Chrome's six).
	maxH1ConnsPerHost = 6
	// retryBackoff is the delay before the first fetch retry, doubling
	// per attempt.
	retryBackoff = 200 * time.Millisecond
)

// New creates a browser on the probe host.
func New(host *simnet.Host, cfg Config) *Browser {
	if cfg.MaxFetchRetries == 0 {
		cfg.MaxFetchRetries = 2
	} else if cfg.MaxFetchRetries < 0 {
		cfg.MaxFetchRetries = 0
	}
	if cfg.Pools == nil {
		cfg.Pools = &httpsim.Pools{}
	}
	return &Browser{
		host:    host,
		sched:   host.Scheduler(),
		cfg:     cfg,
		tickets: tlssim.NewTicketStore(),
		tokens:  quicsim.NewTokenStore(),
		conns:   make(map[string]*pooledConn),
		h1:      make(map[string][]*pooledConn),
		altSvc:  make(map[string]bool),
	}
}

// Stats returns a snapshot of browser counters.
func (b *Browser) Stats() Stats { return b.stats }

// ClearSessions drops TLS tickets and QUIC tokens (the paper's standard
// between-page cleanup; consecutive-visit mode skips this). The Alt-Svc
// cache survives: Chrome stores learned H3 support in its network
// properties, which per-visit cache clearing does not touch — so the
// warm-up visit teaches the measured visit which hosts speak H3.
func (b *Browser) ClearSessions() {
	b.tickets.Clear()
	b.tokens.Clear()
}

// ExportAltSvc returns the hosts whose H3 support this browser has
// learned, sorted — the serializable per-user session memory a traffic
// engine carries between sessions (and across checkpoints) while the
// browser object itself is rebuilt.
func (b *Browser) ExportAltSvc() []string {
	if len(b.altSvc) == 0 {
		return nil
	}
	hosts := make([]string, 0, len(b.altSvc))
	for h, known := range b.altSvc {
		if known {
			hosts = append(hosts, h)
		}
	}
	sort.Strings(hosts)
	return hosts
}

// ImportAltSvc seeds learned H3 support from a prior ExportAltSvc dump.
// It only records knowledge — no preconnects fire until a fetch touches
// the host, matching a browser restart with a persisted properties file.
func (b *Browser) ImportAltSvc(hosts []string) {
	for _, h := range hosts {
		b.altSvc[h] = true
	}
}

// CloseAll terminates all pooled connections (end of a page visit) in
// deterministic key order so packet emission is reproducible. The maps,
// key scratch, and pooledConn records are all reused across visits.
func (b *Browser) CloseAll() {
	keys := b.closeKeys[:0]
	for k := range b.conns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pc := b.conns[k]
		pc.conn.Close()
		b.recycleConn(pc)
	}
	clear(b.conns)

	hosts := keys[:0]
	for k := range b.h1 {
		hosts = append(hosts, k)
	}
	sort.Strings(hosts)
	for _, k := range hosts {
		for _, pc := range b.h1[k] {
			pc.conn.Close()
			b.recycleConn(pc)
		}
	}
	clear(b.h1)
	b.closeKeys = hosts[:0]
}

// recycleConn returns a pooledConn record to the free list. Only called
// once the visit has completed: the record is reused no sooner than the
// next visit, after reclaimStates has dropped every st.pc reference.
func (b *Browser) recycleConn(pc *pooledConn) {
	*pc = pooledConn{}
	b.freeConns = append(b.freeConns, pc)
}

// newPooledConn pops a recycled record or allocates one.
func (b *Browser) newPooledConn() *pooledConn {
	if n := len(b.freeConns); n > 0 {
		pc := b.freeConns[n-1]
		b.freeConns[n-1] = nil
		b.freeConns = b.freeConns[:n-1]
		return pc
	}
	return &pooledConn{}
}

// connKey assembles "prefix+host" in the reused scratch buffer; the
// result is only valid until the next connKey call. Map lookups via
// string(connKey(...)) do not allocate.
func (b *Browser) connKey(prefix, host string) []byte {
	b.keyBuf = append(append(b.keyBuf[:0], prefix...), host...)
	return b.keyBuf
}

// Visit loads a page with progressive discovery, approximating a browser
// render pipeline: the document first, then head resources (scripts and
// stylesheets), then body media (images and fonts), then everything else.
// Each wave starts when the previous one completes. onDone receives log,
// completed; PLT is the time from visit start until the last entry
// finishes — the onLoad analogue.
//
// log is reset first, and its Entries backing array reused when
// capacity allows: a fresh &har.PageLog{} gets its own entries, while a
// scratch log passed to every call (a discarded warm pass) costs no
// per-visit log state and is valid only until the next Visit with it.
func (b *Browser) Visit(page *webgen.Page, log *har.PageLog, onDone func(*har.PageLog)) {
	n := len(page.Resources)
	entries := log.Entries
	if entries == nil || cap(entries) < n { // nil Entries would encode as null
		entries = make([]har.Entry, n)
	} else {
		entries = entries[:n]
		clear(entries)
	}
	*log = har.PageLog{Entries: entries}
	b.reclaimStates()
	start := b.sched.Now()
	log.Site = page.Site
	log.Protocol = b.cfg.Mode.String()
	if len(page.Resources) == 0 {
		onDone(log)
		return
	}

	waves := discoveryWaves(page)
	totalLeft := len(page.Resources)
	var lastDone time.Duration
	entryDone := func() {
		totalLeft--
		if t := b.sched.Now(); t > lastDone {
			lastDone = t
		}
		if totalLeft == 0 {
			log.PLT = lastDone - start
			log.Recount()
			onDone(log)
		}
	}

	// A wave unlocks the next once most of it (80%) has completed:
	// browsers overlap discovery stages, so one straggling resource
	// does not gate everything behind it. PLT still waits for all.
	var startWave func(w int)
	startWave = func(w int) {
		if w >= len(waves) {
			return
		}
		idxs := waves[w]
		if len(idxs) == 0 {
			startWave(w + 1)
			return
		}
		unlockAt := (len(idxs)*4 + 4) / 5 // ceil(0.8n)
		completed := 0
		unlocked := false
		done := func() {
			completed++
			if !unlocked && completed >= unlockAt {
				unlocked = true
				startWave(w + 1)
			}
			entryDone()
		}
		for _, i := range idxs {
			b.fetch(&page.Resources[i], &log.Entries[i], done)
		}
	}
	startWave(0)
}

// discoveryWaves orders resource indices into discovery stages: document;
// scripts+stylesheets; images+fonts; other.
func discoveryWaves(page *webgen.Page) [4][]int {
	var waves [4][]int
	waves[0] = []int{0}
	for i := 1; i < len(page.Resources); i++ {
		switch page.Resources[i].Type {
		case webgen.Script, webgen.Stylesheet:
			waves[1] = append(waves[1], i)
		case webgen.Image, webgen.Font:
			waves[2] = append(waves[2], i)
		default:
			waves[3] = append(waves[3], i)
		}
	}
	return waves
}

// fetch issues one resource request and fills the HAR entry.
func (b *Browser) fetch(res *webgen.Resource, entry *har.Entry, done func()) {
	entry.URL = res.URL()
	entry.Host = res.Host()
	entry.Path = res.Path()
	entry.Started = b.sched.Now()
	b.stats.Requests++
	b.fetchSeq++
	b.cfg.Trace.FetchStart(entry.Started, b.fetchSeq, res.Host(), res.Path())

	ep, ok := b.cfg.Resolver(res.Host())
	if !ok {
		entry.Failed = true
		entry.Error = "no route to host"
		b.cfg.Trace.FetchFail(b.sched.Now(), b.fetchSeq, entry.Error)
		b.stats.FailedEntries++
		done()
		return
	}

	st := b.newFetchState()
	st.res, st.ep, st.entry, st.done = res, ep, entry, done
	st.attempt = 0
	st.finished = false
	st.seq = b.fetchSeq
	st.sentAt, st.firstByte = 0, 0
	b.liveStates = append(b.liveStates, st)
	st.run()
}

// finish reports the fetch to the page barrier exactly once; it is
// idempotent across attempts, so a completion can never double-count.
func (st *fetchState) finish() {
	if st.finished {
		return
	}
	st.finished = true
	st.done()
}

// run starts one try of the fetch. A transport error evicts the dead
// connection from the pool and, within Config.MaxFetchRetries, re-issues
// the request on a fresh connection after exponential backoff; the entry
// is marked failed only once the budget is exhausted.
func (st *fetchState) run() {
	b := st.b
	pc, creator := b.connFor(st.res.Host(), st.ep, st.res.H3Eligible)
	creator = creator || pc.used == 0 // first user of a preconnected conn
	pc.used++
	st.pc = pc
	st.creator = creator
	st.entry.Protocol = pc.conn.Protocol().String()
	st.entry.ReusedConn = !creator
	st.h3Discoverable = b.wantsH3() && st.ep.SupportsH3 && !st.ep.H1Only

	st.req.Host = st.res.Host()
	st.req.Path = st.res.Path()
	pc.conn.Do(&st.req, st.events)
}

func (st *fetchState) onSent() {
	st.sentAt = st.b.sched.Now()
	st.b.cfg.Trace.FetchSent(st.sentAt, st.pc.conn.TraceID(), st.seq)
}

func (st *fetchState) onHeaders(m httpsim.ResponseMeta) {
	b, entry := st.b, st.entry
	st.firstByte = b.sched.Now()
	entry.Status = m.Status
	entry.BodySize = m.BodySize
	entry.Header = m.Header
	if st.h3Discoverable && !b.altSvc[st.res.Host()] {
		// Alt-Svc: the response advertises H3. Chrome establishes the
		// QUIC connection in the background so later requests use it
		// without paying the handshake inline.
		b.altSvc[st.res.Host()] = true
		b.cfg.Trace.AltSvcLearned(b.sched.Now(), st.res.Host())
		b.preconnectH3(st.res.Host(), st.ep)
	}
}

func (st *fetchState) onComplete() {
	b, entry, pc := st.b, st.entry, st.pc
	now := b.sched.Now()
	if st.creator {
		// Connect charges only the handshake portion this request
		// actually waited for; a background preconnect that finished
		// earlier costs zero.
		hsEnd := pc.dialAt + pc.conn.HandshakeDuration()
		if hsEnd > entry.Started {
			entry.Connect = hsEnd - entry.Started
		}
		// HAR 1.2: ssl is the TLS portion of connect (included in it,
		// never exceeding it). A preconnect that finished early charges
		// zero connect and therefore zero ssl.
		if ssl := pc.conn.SSLDuration(); ssl > entry.Connect {
			entry.SSL = entry.Connect
		} else {
			entry.SSL = ssl
		}
		entry.ResumedConn = pc.conn.Resumed()
		if entry.ResumedConn {
			b.stats.ResumedConns++
		}
	}
	entry.Blocked = st.sentAt - entry.Started - entry.Connect
	if entry.Blocked < 0 {
		entry.Blocked = 0
	}
	entry.Wait = st.firstByte - st.sentAt
	entry.Receive = now - st.firstByte
	b.cfg.Trace.FetchDone(now, pc.conn.TraceID(), st.seq, entry.Status, entry.BodySize)
	st.finish()
}

func (st *fetchState) onError(err error) {
	b := st.b
	b.evict(st.pc)
	if st.attempt < b.cfg.MaxFetchRetries {
		st.entry.Retries++
		b.stats.RetriedEntries++
		if b.cfg.Recovery != nil {
			b.cfg.Recovery.FetchRetries++
		}
		backoff := retryBackoff << st.attempt
		st.attempt++
		b.cfg.Trace.FetchRetry(b.sched.Now(), st.seq, st.attempt, err.Error())
		b.sched.After(backoff, st.run)
		return
	}
	st.entry.Failed = true
	st.entry.Error = err.Error()
	b.cfg.Trace.FetchFail(b.sched.Now(), st.seq, st.entry.Error)
	b.stats.FailedEntries++
	st.finish()
}

// evict drops a connection that reported a transport error from the
// pools, so subsequent fetches dial fresh instead of queueing onto a
// dead connection (which would fail every request routed to it). The
// identity check tolerates a pool slot already replaced by a retry.
func (b *Browser) evict(pc *pooledConn) {
	if pc.key != "" {
		if cur, ok := b.conns[pc.key]; ok && cur == pc {
			delete(b.conns, pc.key)
		}
		return
	}
	if pc.h1Host != "" {
		list := b.h1[pc.h1Host]
		for i, o := range list {
			if o == pc {
				b.h1[pc.h1Host] = append(list[:i], list[i+1:]...)
				return
			}
		}
	}
}

// wantsH3 reports whether this browsing mode ever uses HTTP/3.
func (b *Browser) wantsH3() bool {
	return b.cfg.Mode == ModeH3
}

// preconnectH3 opens the host's H3 connection in the background (upon
// Alt-Svc discovery) so subsequent requests find it pooled.
func (b *Browser) preconnectH3(host string, ep Endpoint) {
	if !b.wantsH3() {
		return
	}
	if _, ok := b.conns[string(b.connKey("h3|", host))]; ok {
		return
	}
	b.cfg.Trace.Preconnect(b.sched.Now(), host)
	pc := b.dialH3(host, ep)
	pc.key = "h3|" + host
	b.conns[pc.key] = pc
}

func (b *Browser) dialH3(host string, ep Endpoint) *pooledConn {
	pc := b.newPooledConn()
	pc.dialAt = b.sched.Now()
	pc.conn = httpsim.DialH3(b.host, ep.Addr, httpsim.QUICPort, host, httpsim.H3DialConfig{
		Tokens:        b.tokens,
		EnableZeroRTT: b.cfg.EnableZeroRTT,
		HandshakeCPU:  b.cfg.HandshakeCPU,
		// Userspace QUIC retransmits lost handshakes from a
		// cached RTT estimate (Chromium kInitialRtt), far
		// sooner than kernel TCP's fixed 1s SYN timer.
		QUIC:  quicsim.Config{PTOInit: 150 * time.Millisecond, Recovery: b.cfg.Recovery},
		Pools: b.cfg.Pools,
		Trace: b.cfg.Trace,
	})
	b.stats.ConnsOpened++
	b.stats.H3Conns++
	return pc
}

// connFor returns the pooled connection serving host, creating one if
// needed; creator reports whether this request triggered the dial.
// h3Eligible is the per-resource rollout flag: an H3-capable host's
// uncovered resources still travel over HTTP/2, splitting the host's
// traffic across two connections (§VI-C's deployment density).
func (b *Browser) connFor(host string, ep Endpoint, h3Eligible bool) (*pooledConn, bool) {
	// H3 additionally requires the browser to know about it: preloaded
	// hints or Alt-Svc learned from a prior response (the warm-up visit
	// in the paper's protocol).
	h3Known := ep.H3Preloaded || b.altSvc[host]
	h3Possible := ep.SupportsH3 && !ep.H1Only && h3Known && h3Eligible
	useH3 := b.cfg.Mode == ModeH3 && h3Possible
	switch {
	case ep.H1Only:
		return b.h1ConnFor(host, ep)
	case useH3:
		if pc, ok := b.conns[string(b.connKey("h3|", host))]; ok {
			return pc, false
		}
		if ep.H3Preloaded && !b.altSvc[host] {
			b.cfg.Trace.PreloadHit(b.sched.Now(), host)
		}
		pc := b.dialH3(host, ep)
		pc.key = "h3|" + host
		b.conns[pc.key] = pc
		return pc, true

	case b.cfg.Mode == ModeH1:
		return b.h1ConnFor(host, ep)

	default:
		if pc, ok := b.conns[string(b.connKey("h2|", host))]; ok {
			return pc, false
		}
		pc := b.newPooledConn()
		pc.dialAt = b.sched.Now()
		pc.conn = httpsim.DialH2(b.host, ep.Addr, httpsim.TCPPort, host, b.dialCfg())
		pc.key = "h2|" + host
		b.conns[pc.key] = pc
		b.stats.ConnsOpened++
		b.stats.H2Conns++
		return pc, true
	}
}

func (b *Browser) dialCfg() httpsim.DialConfig {
	cfg := httpsim.DialConfig{
		TLSTickets:      b.tickets,
		EnableEarlyData: b.cfg.EnableEarlyData,
		HandshakeCPU:    b.cfg.HandshakeCPU,
		Recovery:        b.cfg.Recovery,
		Pools:           b.cfg.Pools,
		Trace:           b.cfg.Trace,
	}
	if b.cfg.TLS12 {
		cfg.TLSVersion = tlssim.TLS12
	}
	return cfg
}

// h1ConnFor picks an idle H1 connection for the host, opening new ones up
// to the per-host cap, then queueing on the least-loaded.
func (b *Browser) h1ConnFor(host string, ep Endpoint) (*pooledConn, bool) {
	key := host
	list := b.h1[key]
	for _, pc := range list {
		if pc.conn.InFlight() == 0 {
			return pc, false
		}
	}
	if len(list) < maxH1ConnsPerHost {
		pc := b.newPooledConn()
		pc.dialAt = b.sched.Now()
		pc.conn = httpsim.DialH1(b.host, ep.Addr, httpsim.TCPPort, host, b.dialCfg())
		pc.h1Host = key
		b.h1[key] = append(b.h1[key], pc)
		b.stats.ConnsOpened++
		b.stats.H1Conns++
		return pc, true
	}
	best := list[0]
	for _, pc := range list[1:] {
		if pc.conn.InFlight() < best.conn.InFlight() {
			best = pc
		}
	}
	return best, false
}
