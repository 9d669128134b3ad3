package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"h3cdn/internal/cdn"
	"h3cdn/internal/core"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/sketch"
	"h3cdn/internal/tcpsim"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/webgen"
)

// Layer kernels: steady-state drivers built only from each layer's
// exported API. They do not depend on the workload, warm themselves
// before timing, and report host time next to a deterministic work unit
// (events, allocations) so a change in one can be told from a change in
// the other. All run on the calling goroutine.

// Kernel path: 40 ms RTT at 100 Mbit/s, as the issue specifies for bulk
// transfers.
const (
	kernelDelay = 20 * time.Millisecond
	kernelBps   = 100e6
	bulkBytes   = 4 << 20
)

// kernelRuns is how many timed runs a transfer or handshake kernel
// takes the median of.
const kernelRuns = 9

// kernelGiveUp is the transports' consecutive-timeout limit in the
// kernels. The lossy impairment's Gilbert–Elliott chain advances per
// transmission, so a lone flow whose tail falls into the bad state loses
// most probes in a row; at the default limit of 8 about one 4 MB QUIC
// transfer in five times out (a finding, see README.md). The kernels
// measure what recovery costs, not when the transport gives up.
const kernelGiveUp = 64

type kernelEnv struct {
	out *metricSet
	// div scales iteration counts down for the smoke run.
	div int
}

func (k *kernelEnv) iters(n int) int { return max(n/k.div, 1) }

// mallocs reads the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func runKernels(rec *spanRecorder, out *metricSet, smoke bool) error {
	k := &kernelEnv{out: out, div: 1}
	if smoke {
		k.div = 16
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"kernel:simnet.scheduler", k.scheduler},
		{"kernel:simnet.send", k.send},
		{"kernel:tcpsim.bulk", k.tcpBulk},
		{"kernel:quicsim.bulk", k.quicBulk},
		{"kernel:quicsim.handshake", k.quicHandshake},
		{"kernel:tlssim.handshake", k.tlsHandshake},
		{"kernel:httpsim.requests", k.httpRequests},
		{"kernel:cdn.lru", k.lru},
		{"kernel:cdn.edge", k.edge},
		{"kernel:sketch", k.sketch},
		{"kernel:setup", k.setup},
	}
	for _, s := range steps {
		var err error
		rec.do(s.name, func() { err = s.run() })
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// drain runs the scheduler dry and reports the events executed.
func drain(s *simnet.Scheduler) (int, error) {
	n, err := s.Run()
	if err != nil {
		return n, fmt.Errorf("scheduler: %w", err)
	}
	return n, nil
}

// --- simnet ---

type schedChain struct {
	s    *simnet.Scheduler
	rng  *rand.Rand
	left *int
}

func stepChain(x any) {
	c := x.(*schedChain)
	if *c.left <= 0 {
		return
	}
	*c.left--
	c.s.AfterArg(time.Duration(c.rng.Int63n(int64(time.Millisecond))), stepChain, c)
}

// scheduler measures event dispatch with 1024 self-rescheduling chains
// pending (a busy visit's heap depth) and in-place timer re-arming with
// 64 armed timers (one RTO/PTO per open connection).
func (k *kernelEnv) scheduler() error {
	run := func(events int) (time.Duration, int, error) {
		s := &simnet.Scheduler{}
		left := events
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1024; i++ {
			s.AfterArg(time.Duration(i), stepChain, &schedChain{s: s, rng: rng, left: &left})
		}
		start := time.Now()
		n, err := drain(s)
		return time.Since(start), n, err
	}
	events := k.iters(2_000_000)
	if _, _, err := run(events / 8); err != nil {
		return err
	}
	d, n, err := run(events)
	if err != nil {
		return err
	}
	k.out.set("simnet.sched_ns_per_event", float64(d.Nanoseconds())/float64(n))

	s := &simnet.Scheduler{}
	timers := make([]*simnet.Timer, 64)
	for i := range timers {
		timers[i] = s.NewTimer(func() {})
		timers[i].Reset(time.Duration(i+1) * time.Millisecond)
	}
	resets := k.iters(2_000_000)
	reset := func(n int) {
		for i := 0; i < n; i++ {
			timers[i%len(timers)].Reset(time.Duration(200+i%97) * time.Millisecond)
		}
	}
	reset(resets / 8)
	start := time.Now()
	reset(resets)
	d = time.Since(start)
	k.out.set("simnet.timer_reset_ns", float64(d.Nanoseconds())/float64(resets))
	return nil
}

// send measures the per-packet path — Host.Send through serialization,
// loss dice, delivery scheduling and the arrival callback — on a clean
// path, under the lossy workload's impairment, and on the LTE trace.
func (k *kernelEnv) send() error {
	lte, err := traces.Profile("lte")
	if err != nil {
		return err
	}
	packets := k.iters(400_000)
	const batch, size = 64, 1200
	run := func(impair *simnet.Impairment, tl *simnet.TraceLink) (nsPerPkt, allocsPerPkt float64, err error) {
		s := &simnet.Scheduler{}
		pf := func(src, dst simnet.Addr) simnet.PathProps {
			return simnet.PathProps{
				Delay: kernelDelay, BandwidthBps: kernelBps, LossRate: core.DefaultBaselineLoss,
				LinkID: "access", Impair: impair, Trace: tl,
			}
		}
		net := simnet.NewNetwork(s, pf, seqrand.New(7))
		a, b := net.AddHost("a"), net.AddHost("b")
		if err := b.Bind(9, func(simnet.Packet) {}); err != nil {
			return 0, 0, err
		}
		pump := func(n int) error {
			for sent := 0; sent < n; sent += batch {
				for i := 0; i < batch; i++ {
					a.Send(1, "b", 9, size, nil)
				}
				if _, err := drain(s); err != nil {
					return err
				}
			}
			return nil
		}
		if err := pump(packets / 8); err != nil {
			return 0, 0, err
		}
		m0 := mallocs()
		start := time.Now()
		if err := pump(packets); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		m1 := mallocs()
		st := net.Stats()
		if got := st.Delivered + st.LossDrops + st.BurstDrops + st.OutageDrops + st.QueueDrops; got != st.Sent {
			return 0, 0, fmt.Errorf("send conservation: sent %d, delivered+dropped %d", st.Sent, got)
		}
		return float64(d.Nanoseconds()) / float64(packets), float64(m1-m0) / float64(packets), nil
	}
	ns, allocs, err := run(nil, nil)
	if err != nil {
		return err
	}
	k.out.set("simnet.send_ns_per_pkt", ns)
	k.out.set("simnet.send_allocs_per_pkt", allocs)
	if ns, _, err = run(lossyImpairment(), nil); err != nil {
		return err
	}
	k.out.set("simnet.send_impaired_ns_per_pkt", ns)
	if ns, _, err = run(nil, lte); err != nil {
		return err
	}
	k.out.set("simnet.send_trace_ns_per_pkt", ns)
	return nil
}

// --- transports ---

// world is a two-host network for the transport and HTTP kernels. Each
// kernel pairs it with an httpsim.Pools, the arenas a universe shares
// across its endpoints, and rewinds them where a visit boundary would.
type world struct {
	sched          *simnet.Scheduler
	client, server *simnet.Host
}

func newWorld(impair *simnet.Impairment) *world {
	s := &simnet.Scheduler{MaxEvents: 50_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: kernelDelay, BandwidthBps: kernelBps, Impair: impair}
	}
	net := simnet.NewNetwork(s, pf, seqrand.New(11))
	return &world{sched: s, client: net.AddHost("client"), server: net.AddHost("server")}
}

// transferStats is what one kernel run reports: host time, scheduler
// events, and allocations.
type transferStats struct {
	host   time.Duration
	events int
	allocs uint64
}

// medianRun warms fn once, then runs it kernelRuns times and returns
// the run with the median host time (events and allocations repeat
// exactly, so any run's will do).
func medianRun(fn func() (transferStats, error)) (transferStats, error) {
	if _, err := fn(); err != nil {
		return transferStats{}, err
	}
	runs := make([]transferStats, kernelRuns)
	hosts := make([]float64, kernelRuns)
	for i := range runs {
		st, err := fn()
		if err != nil {
			return transferStats{}, err
		}
		runs[i], hosts[i] = st, float64(st.host)
	}
	mid := median(hosts)
	best := runs[0]
	for _, r := range runs {
		if math.Abs(float64(r.host)-mid) < math.Abs(float64(best.host)-mid) {
			best = r
		}
	}
	return best, nil
}

// setBulk reports one bulk-transfer kernel of the given size under
// prefix ("tcpsim.bulk").
func (k *kernelEnv) setBulk(prefix string, st transferStats, bytes int, withAllocs bool) {
	kb := float64(bytes) / 1024
	k.out.set(prefix+"_ns_per_kb", float64(st.host.Nanoseconds())/kb)
	k.out.set(prefix+"_events_per_kb", float64(st.events)/kb)
	if withAllocs {
		k.out.set(prefix+"_allocs_per_mb", float64(st.allocs)/(kb/1024))
	}
}

// bulkSize is the transfer size: 4 MB, less in the smoke run.
func (k *kernelEnv) bulkSize() int { return max(bulkBytes/k.div, 64<<10) }

// tcpBulk moves 4 MB one way over a fresh connection per run.
func (k *kernelEnv) tcpBulk() error {
	payload := make([]byte, k.bulkSize())
	pools := &httpsim.Pools{}
	run := func(impair *simnet.Impairment) func() (transferStats, error) {
		return func() (transferStats, error) {
			w := newWorld(impair)
			cfg := tcpsim.Config{Pools: &pools.TCP, Arena: &pools.Arena, MaxRetries: kernelGiveUp}
			received := 0
			if _, err := tcpsim.Listen(w.server, 443, cfg, func(c *tcpsim.Conn) {
				c.SetDataFunc(func(p []byte) { received += len(p) })
			}); err != nil {
				return transferStats{}, err
			}
			m0 := mallocs()
			start := time.Now()
			tcpsim.Dial(w.client, "server", 443, cfg, func(c *tcpsim.Conn) { c.Write(payload) })
			n, err := drain(w.sched)
			st := transferStats{host: time.Since(start), events: n, allocs: mallocs() - m0}
			if err != nil {
				return st, err
			}
			if received != len(payload) {
				return st, fmt.Errorf("tcp bulk delivered %d of %d bytes", received, len(payload))
			}
			pools.Rewind()
			return st, nil
		}
	}
	st, err := medianRun(run(nil))
	if err != nil {
		return err
	}
	k.setBulk("tcpsim.bulk", st, len(payload), true)
	if st, err = medianRun(run(lossyImpairment())); err != nil {
		return err
	}
	k.setBulk("tcpsim.bulk_lossy", st, len(payload), false)
	return nil
}

// quicBulk moves 4 MB one way on one stream, then on sixteen.
func (k *kernelEnv) quicBulk() error {
	total := k.bulkSize()
	pools := &httpsim.Pools{}
	run := func(impair *simnet.Impairment, streams int) func() (transferStats, error) {
		payload := make([]byte, total/streams)
		return func() (transferStats, error) {
			w := newWorld(impair)
			cfg := quicsim.Config{Pools: &pools.QUIC, MaxPTOs: kernelGiveUp}
			received := 0
			if _, err := quicsim.Listen(w.server, 443, quicsim.ServerConfig{Config: cfg}, func(c *quicsim.Conn) {
				c.SetStreamFunc(func(s *quicsim.Stream) {
					s.SetDataFunc(func(p []byte) { received += len(p) })
				})
			}); err != nil {
				return transferStats{}, err
			}
			m0 := mallocs()
			start := time.Now()
			quicsim.Dial(w.client, "server", 443, quicsim.ClientConfig{Config: cfg, ServerName: "server"}, func(c *quicsim.Conn) {
				for i := 0; i < streams; i++ {
					s := c.OpenStream()
					s.Write(payload)
					s.CloseWrite()
				}
			})
			n, err := drain(w.sched)
			st := transferStats{host: time.Since(start), events: n, allocs: mallocs() - m0}
			if err != nil {
				return st, err
			}
			if received != len(payload)*streams {
				return st, fmt.Errorf("quic bulk delivered %d of %d bytes", received, len(payload)*streams)
			}
			pools.Rewind()
			return st, nil
		}
	}
	st, err := medianRun(run(nil, 1))
	if err != nil {
		return err
	}
	k.setBulk("quicsim.bulk", st, total, true)
	if st, err = medianRun(run(lossyImpairment(), 1)); err != nil {
		return err
	}
	k.setBulk("quicsim.bulk_lossy", st, total, false)
	if st, err = medianRun(run(nil, 16)); err != nil {
		return err
	}
	k.out.set("quicsim.streams16_ns_per_kb", float64(st.host.Nanoseconds())/(float64(total)/1024))
	return nil
}

// quicHandshake dials, establishes and closes connections one after the
// other: cold 1-RTT handshakes, then resumed 0-RTT ones.
func (k *kernelEnv) quicHandshake() error {
	conns := k.iters(2000)
	run := func(resume bool) func() (transferStats, error) {
		return func() (transferStats, error) {
			pools := &httpsim.Pools{}
			w := newWorld(nil)
			cfg := quicsim.Config{Pools: &pools.QUIC}
			if _, err := quicsim.Listen(w.server, 443, quicsim.ServerConfig{Config: cfg, Sessions: quicsim.NewServerSessions()}, nil); err != nil {
				return transferStats{}, err
			}
			ccfg := quicsim.ClientConfig{Config: cfg, ServerName: "server"}
			if resume {
				ccfg.Tokens = quicsim.NewTokenStore()
				ccfg.EnableZeroRTT = true
			}
			dial := func() (bool, error) {
				zero := false
				quicsim.Dial(w.client, "server", 443, ccfg, func(c *quicsim.Conn) {
					zero = c.UsedZeroRTT()
					c.Close()
				})
				_, err := drain(w.sched)
				pools.Rewind()
				return zero, err
			}
			if _, err := dial(); err != nil { // seeds the token store
				return transferStats{}, err
			}
			start := time.Now()
			for i := 0; i < conns; i++ {
				zero, err := dial()
				if err != nil {
					return transferStats{}, err
				}
				if zero != resume {
					return transferStats{}, fmt.Errorf("quic handshake %d: 0-RTT %v, want %v", i, zero, resume)
				}
			}
			return transferStats{host: time.Since(start)}, nil
		}
	}
	usPerConn := func(st transferStats) float64 { return st.host.Seconds() * 1e6 / float64(conns) }
	st, err := medianRun(run(false))
	if err != nil {
		return err
	}
	k.out.set("quicsim.handshake_us", usPerConn(st))
	if st, err = medianRun(run(true)); err != nil {
		return err
	}
	k.out.set("quicsim.zero_rtt_us", usPerConn(st))
	return nil
}

// tlsHandshake runs TCP+TLS 1.3 handshakes one after the other: full,
// then resumed from a ticket.
func (k *kernelEnv) tlsHandshake() error {
	conns := k.iters(2000)
	run := func(resume bool) func() (transferStats, error) {
		return func() (transferStats, error) {
			pools := &httpsim.Pools{}
			w := newWorld(nil)
			tcpCfg := tcpsim.Config{Pools: &pools.TCP, Arena: &pools.Arena}
			sessions := tlssim.NewServerSessionState()
			if _, err := tcpsim.Listen(w.server, 443, tcpCfg, func(tc *tcpsim.Conn) {
				var sc *tlssim.Conn
				sc = tlssim.Server(tc, tlssim.ServerConfig{Sessions: sessions, Sched: w.sched, Arena: &pools.Arena}, nil)
				sc.SetCloseFunc(func(error) { sc.Close() })
			}); err != nil {
				return transferStats{}, err
			}
			ccfg := tlssim.ClientConfig{ServerName: "server", Sched: w.sched, Arena: &pools.Arena}
			if resume {
				ccfg.Tickets = tlssim.NewTicketStore()
			}
			dial := func() (resumed bool, events int, err error) {
				var hsErr error
				tcpsim.Dial(w.client, "server", 443, tcpCfg, func(tc *tcpsim.Conn) {
					var conn *tlssim.Conn
					conn = tlssim.Client(tc, ccfg, func(err error) {
						hsErr = err
						resumed = conn.Resumed()
						conn.Close()
					})
				})
				events, err = drain(w.sched)
				pools.Rewind()
				if err == nil {
					err = hsErr
				}
				return resumed, events, err
			}
			if _, _, err := dial(); err != nil { // seeds the ticket store
				return transferStats{}, err
			}
			var st transferStats
			start := time.Now()
			for i := 0; i < conns; i++ {
				resumed, n, err := dial()
				if err != nil {
					return transferStats{}, err
				}
				if resumed != resume {
					return transferStats{}, fmt.Errorf("tls handshake %d: resumed %v, want %v", i, resumed, resume)
				}
				st.events += n
			}
			st.host = time.Since(start)
			return st, nil
		}
	}
	st, err := medianRun(run(false))
	if err != nil {
		return err
	}
	k.out.set("tlssim.handshake_us", st.host.Seconds()*1e6/float64(conns))
	k.out.set("tlssim.handshake_events", float64(st.events)/float64(conns))
	if st, err = medianRun(run(true)); err != nil {
		return err
	}
	k.out.set("tlssim.resume_us", st.host.Seconds()*1e6/float64(conns))
	return nil
}

// --- httpsim ---

// httpRequests issues 100 concurrent requests for 10 KB bodies on one
// connection per round, against a handler that answers at once.
func (k *kernelEnv) httpRequests() error {
	const reqs, body = 100, 10_000
	rounds := k.iters(32)
	header := map[string]string{"server": "bench"}
	handler := func(_ *httpsim.ServerContext, respond func(httpsim.Response)) {
		respond(httpsim.Response{Status: 200, Header: header, BodySize: body})
	}
	requests := make([]*httpsim.Request, reqs)
	for i := range requests {
		requests[i] = &httpsim.Request{Host: "server", Path: "/r/" + strconv.Itoa(i)}
	}
	run := func(proto httpsim.Protocol) func() (transferStats, error) {
		return func() (transferStats, error) {
			pools := &httpsim.Pools{}
			w := newWorld(nil)
			srv, err := httpsim.StartServer(w.server, httpsim.ServerConfig{
				Handler:      handler,
				TLSSessions:  tlssim.NewServerSessionState(),
				QUICSessions: quicsim.NewServerSessions(),
				EnableH3:     true,
				Pools:        pools,
			})
			if err != nil {
				return transferStats{}, err
			}
			defer srv.Close()
			round := func() (int, error) {
				var conn httpsim.ClientConn
				switch proto {
				case httpsim.H1:
					conn = httpsim.DialH1(w.client, "server", httpsim.TCPPort, "server", httpsim.DialConfig{Pools: pools})
				case httpsim.H2:
					conn = httpsim.DialH2(w.client, "server", httpsim.TCPPort, "server", httpsim.DialConfig{Pools: pools})
				default:
					conn = httpsim.DialH3(w.client, "server", httpsim.QUICPort, "server", httpsim.H3DialConfig{Pools: pools})
				}
				done, failed := 0, 0
				ev := httpsim.RequestEvents{
					OnComplete: func() {
						if done++; done == reqs {
							conn.Close()
						}
					},
					OnError: func(error) { failed++ },
				}
				for _, r := range requests {
					conn.Do(r, ev)
				}
				n, err := drain(w.sched)
				if err != nil {
					return n, err
				}
				if done != reqs || failed != 0 {
					return n, fmt.Errorf("%v round: %d of %d responses, %d errors", proto, done, reqs, failed)
				}
				pools.Rewind()
				return n, nil
			}
			if _, err := round(); err != nil {
				return transferStats{}, err
			}
			var st transferStats
			m0 := mallocs()
			start := time.Now()
			for i := 0; i < rounds; i++ {
				n, err := round()
				if err != nil {
					return transferStats{}, err
				}
				st.events += n
			}
			st.host = time.Since(start)
			st.allocs = mallocs() - m0
			return st, nil
		}
	}
	total := float64(rounds * reqs)
	for _, p := range []struct {
		proto  httpsim.Protocol
		prefix string
		detail bool
	}{
		{httpsim.H1, "httpsim.h1", false},
		{httpsim.H2, "httpsim.h2", true},
		{httpsim.H3, "httpsim.h3", true},
	} {
		st, err := medianRun(run(p.proto))
		if err != nil {
			return err
		}
		k.out.set(p.prefix+"_us_per_req", st.host.Seconds()*1e6/total)
		if !p.detail {
			continue
		}
		k.out.set(p.prefix+"_events_per_req", float64(st.events)/total)
		k.out.set(p.prefix+"_allocs_per_req", float64(st.allocs)/total)
	}
	return nil
}

// --- cdn ---

type lruKey struct{ host, path string }

// lru measures a recency refresh on a full 8192-entry cache and an
// insert that evicts the oldest entry.
func (k *kernelEnv) lru() error {
	const capacity = 8192
	keys := make([]lruKey, 8*capacity)
	for i := range keys {
		keys[i] = lruKey{"cdn.example", "/asset/" + strconv.Itoa(i)}
	}
	c := cdn.NewLRUCache[lruKey](capacity)
	for _, key := range keys[:capacity] {
		c.Add(key)
	}
	n := k.iters(2_000_000)
	// Stride through the resident keys so successive hits touch
	// different list nodes.
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if c.Contains(keys[(i*31)%capacity]) {
			hits++
		}
	}
	d := time.Since(start)
	if hits != n {
		return fmt.Errorf("lru hit kernel: %d hits of %d lookups", hits, n)
	}
	k.out.set("cdn.lru_hit_ns", float64(d.Nanoseconds())/float64(n))
	// Cycling through 8× the capacity means every Add is a new key and
	// evicts.
	start = time.Now()
	for i := 0; i < n; i++ {
		c.Add(keys[(capacity+i)%len(keys)])
	}
	d = time.Since(start)
	if c.Len() != capacity {
		return fmt.Errorf("lru evict kernel: %d entries, want %d", c.Len(), capacity)
	}
	k.out.set("cdn.lru_insert_evict_ns", float64(d.Nanoseconds())/float64(n))
	return nil
}

// edge drives an edge's request handler directly (no network): all
// hits, all first-time misses, and — in TTL mode — ten concurrent
// requests per new resource, one origin-fetch leader and nine waiters.
func (k *kernelEnv) edge() error {
	const batch = 1000
	batches := k.iters(200)
	provider := cdn.Registry()[0]
	content := func(host, path string) (int, bool) { return 10_000, true }
	paths := make([]string, batch*(batches+1))
	for i := range paths {
		paths[i] = "/obj/" + strconv.Itoa(i)
	}
	run := func(ttl time.Duration, pathFor func(b, i int) string) (float64, error) {
		s := &simnet.Scheduler{}
		e := cdn.NewEdge(cdn.EdgeConfig{
			Provider: provider, Sched: s, Content: content,
			CacheCapacity: len(paths), TTL: ttl, Rng: rand.New(rand.NewSource(3)),
		})
		h := e.Handler()
		responses := 0
		respond := func(httpsim.Response) { responses++ }
		ctx := &httpsim.ServerContext{Protocol: httpsim.H2, ServerName: "cdn.example"}
		round := func(b int) error {
			for i := 0; i < batch; i++ {
				ctx.Req = &httpsim.Request{Host: "cdn.example", Path: pathFor(b, i)}
				h(ctx, respond)
			}
			_, err := drain(s)
			return err
		}
		if err := round(0); err != nil {
			return 0, err
		}
		start := time.Now()
		for b := 1; b <= batches; b++ {
			if err := round(b); err != nil {
				return 0, err
			}
		}
		d := time.Since(start)
		if want := batch * (batches + 1); responses != want {
			return 0, fmt.Errorf("edge kernel: %d responses, want %d", responses, want)
		}
		return d.Seconds() * 1e6 / float64(batch*batches), nil
	}
	us, err := run(0, func(_, i int) string { return paths[i] })
	if err != nil {
		return err
	}
	k.out.set("cdn.edge_hit_us_per_req", us)
	if us, err = run(0, func(b, i int) string { return paths[b*batch+i] }); err != nil {
		return err
	}
	k.out.set("cdn.edge_miss_us_per_req", us)
	if us, err = run(time.Minute, func(b, i int) string { return paths[b*batch+i/10] }); err != nil {
		return err
	}
	k.out.set("cdn.edge_ttl_stampede_us_per_req", us)
	return nil
}

// --- sketch ---

func (k *kernelEnv) sketch() error {
	sample := func(i int) sketch.VisitSample {
		return sketch.VisitSample{
			PLTNs: int64(200+i%1800) * int64(time.Millisecond), Bytes: 2 << 20,
			Entries: 111, Reused: 60, Resumed: 5, Retries: int64(i % 3),
		}
	}
	acc := sketch.NewAccumulator(sketch.DefaultAlpha)
	g := acc.Group(sketch.Key{Mode: "h2", Vantage: "v"})
	n := k.iters(2_000_000)
	for i := 0; i < n/8; i++ {
		g.Fold(sample(i))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		g.Fold(sample(i))
	}
	d := time.Since(start)
	k.out.set("sketch.fold_ns", float64(d.Nanoseconds())/float64(n))

	// One shard's accumulator as a campaign produces it: six (mode,
	// vantage) groups, a thousand visits each.
	shard := func() *sketch.MetricAccumulator {
		a := sketch.NewAccumulator(sketch.DefaultAlpha)
		for m := 0; m < 2; m++ {
			for v := 0; v < 3; v++ {
				grp := a.Group(sketch.Key{Mode: "m" + strconv.Itoa(m), Vantage: "v" + strconv.Itoa(v)})
				for i := 0; i < 1000; i++ {
					grp.Fold(sample(i*7 + m + v))
				}
			}
		}
		return a
	}
	dst, src := shard(), shard()
	merges := k.iters(2000)
	dst.Merge(src)
	start = time.Now()
	for i := 0; i < merges; i++ {
		dst.Merge(src)
	}
	d = time.Since(start)
	k.out.set("sketch.merge_us", d.Seconds()*1e6/float64(merges))
	return nil
}

// setup measures the two set-up stages per thousand pages, so a change
// to corpus generation or topology construction shows apart from the
// workloads' own (smaller) setup_s.
func (k *kernelEnv) setup() error {
	pages := k.iters(1000)
	perK := func(d time.Duration) float64 { return d.Seconds() * 1e3 * 1000 / float64(pages) }
	var corpus *webgen.Corpus
	gen := make([]float64, 3)
	topo := make([]float64, 3)
	for i := range gen {
		start := time.Now()
		corpus = webgen.Generate(webgen.Config{Seed: corpusSeed, NumPages: pages})
		gen[i] = perK(time.Since(start))
		start = time.Now()
		core.NewTopology(corpus)
		topo[i] = perK(time.Since(start))
	}
	k.out.set("webgen.generate_ms_per_kpage", median(gen))
	k.out.set("core.topology_ms_per_kpage", median(topo))
	return nil
}
