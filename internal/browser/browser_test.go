package browser

import (
	"testing"
	"time"

	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/quicsim"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/simnet"
	"h3cdn/internal/tlssim"
	"h3cdn/internal/webgen"
)

// testWorld wires a probe, one CDN edge ("edge.test") and one origin
// ("origin.site.sim") with a handler serving fixed-size bodies.
type testWorld struct {
	sched  *simnet.Scheduler
	net    *simnet.Network
	probe  *simnet.Host
	corpus map[string]webgen.Resource
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	sched := &simnet.Scheduler{MaxEvents: 10_000_000}
	pf := func(src, dst simnet.Addr) simnet.PathProps {
		return simnet.PathProps{Delay: 20 * time.Millisecond}
	}
	n := simnet.NewNetwork(sched, pf, seqrand.New(3))
	w := &testWorld{sched: sched, net: n, probe: n.AddHost("probe")}

	handler := func(ctx *httpsim.ServerContext, respond func(httpsim.Response)) {
		sched.After(2*time.Millisecond, func() {
			respond(httpsim.Response{
				Status:   200,
				Header:   map[string]string{"server": "cloudflare"},
				BodySize: 2000,
			})
		})
	}
	for _, addr := range []simnet.Addr{"edge.test", "origin.site.sim"} {
		host := n.AddHost(addr)
		if _, err := httpsim.StartServer(host, httpsim.ServerConfig{
			Handler:      handler,
			TLSSessions:  tlssim.NewServerSessionState(),
			QUICSessions: quicsim.NewServerSessions(),
			EnableH3:     true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// resolver maps any *.cdn host to the edge, site.sim to the origin.
func (w *testWorld) resolver(h3 map[string]bool, h1Only map[string]bool) Resolver {
	return func(host string) (Endpoint, bool) {
		ep := Endpoint{Addr: "edge.test", SupportsH3: h3[host], H1Only: h1Only[host]}
		if host == "site.sim" {
			ep.Addr = "origin.site.sim"
		}
		if host == "unknown.sim" {
			return Endpoint{}, false
		}
		return ep, true
	}
}

func testResource(host, path string, r webgen.Resource) webgen.Resource {
	r.SetLocation(host, path)
	return r
}

func testPage(hosts []string, eligible bool) *webgen.Page {
	p := &webgen.Page{Site: "site.sim"}
	p.Resources = append(p.Resources, testResource("site.sim", "/", webgen.Resource{
		Size: 2000, Type: webgen.Document, H3Eligible: eligible,
	}))
	for i, h := range hosts {
		typ := webgen.Script
		if i%2 == 1 {
			typ = webgen.Image
		}
		p.Resources = append(p.Resources, testResource(h, "/r", webgen.Resource{
			Size: 2000, Type: typ, H3Eligible: eligible,
		}))
	}
	return p
}

func (w *testWorld) visit(t *testing.T, b *Browser, page *webgen.Page) *har.PageLog {
	t.Helper()
	var log *har.PageLog
	b.Visit(page, &har.PageLog{}, func(l *har.PageLog) {
		log = l
		b.CloseAll()
	})
	if _, err := w.sched.Run(); err != nil {
		t.Fatal(err)
	}
	if log == nil {
		t.Fatal("visit never completed")
	}
	return log
}

func TestVisitH2AllEntries(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH2, Resolver: w.resolver(nil, nil)})
	log := w.visit(t, b, testPage([]string{"a.cdn", "b.cdn", "a.cdn"}, false))
	if len(log.Entries) != 4 {
		t.Fatalf("%d entries", len(log.Entries))
	}
	for _, e := range log.Entries {
		if e.Failed || e.Status != 200 || e.Protocol != "h2" {
			t.Fatalf("entry %+v", e)
		}
	}
	if log.PLT <= 0 {
		t.Fatal("PLT not positive")
	}
}

func TestH2PoolsPerHostname(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH2, Resolver: w.resolver(nil, nil)})
	// a.cdn twice: second request reuses; b.cdn gets its own conn even
	// though it resolves to the same edge (no coalescing).
	log := w.visit(t, b, testPage([]string{"a.cdn", "b.cdn", "a.cdn"}, false))
	if got := b.Stats().H2Conns; got != 3 { // origin + a.cdn + b.cdn
		t.Fatalf("opened %d H2 conns, want 3", got)
	}
	if log.ReusedConns != 1 {
		t.Fatalf("reused = %d, want 1", log.ReusedConns)
	}
}

func TestH3RequiresDiscovery(t *testing.T) {
	w := newTestWorld(t)
	h3 := map[string]bool{"a.cdn": true}
	b := New(w.probe, Config{Mode: ModeH3, Resolver: w.resolver(h3, nil)})

	// Cold: first visit's a.cdn requests go H2 (Alt-Svc unknown).
	log := w.visit(t, b, testPage([]string{"a.cdn"}, true))
	if log.Entries[1].Protocol != "h2" {
		t.Fatalf("cold visit used %s, want h2 until discovery", log.Entries[1].Protocol)
	}

	// Warm: Alt-Svc learned (persists across ClearSessions).
	b.ClearSessions()
	log = w.visit(t, b, testPage([]string{"a.cdn"}, true))
	if log.Entries[1].Protocol != "h3" {
		t.Fatalf("warm visit used %s, want h3", log.Entries[1].Protocol)
	}
}

func TestAltSvcExportImport(t *testing.T) {
	w := newTestWorld(t)
	h3 := map[string]bool{"a.cdn": true}
	b := New(w.probe, Config{Mode: ModeH3, Resolver: w.resolver(h3, nil)})

	if got := b.ExportAltSvc(); got != nil {
		t.Fatalf("fresh browser exported %v, want nil", got)
	}
	w.visit(t, b, testPage([]string{"a.cdn"}, true)) // learns a.cdn via Alt-Svc
	dump := b.ExportAltSvc()
	if len(dump) != 1 || dump[0] != "a.cdn" {
		t.Fatalf("export = %v, want [a.cdn]", dump)
	}

	// A rebuilt browser seeded with the dump speaks H3 on its very first
	// visit — no rediscovery round trip (the checkpoint-resume path).
	b2 := New(w.probe, Config{Mode: ModeH3, Resolver: w.resolver(h3, nil)})
	b2.ImportAltSvc(dump)
	log := w.visit(t, b2, testPage([]string{"a.cdn"}, true))
	if log.Entries[1].Protocol != "h3" {
		t.Fatalf("imported Alt-Svc: first visit used %s, want h3", log.Entries[1].Protocol)
	}
}

func TestH3PreloadSkipsDiscovery(t *testing.T) {
	w := newTestWorld(t)
	h3 := map[string]bool{"g.cdn": true}
	res := func(host string) (Endpoint, bool) {
		ep, ok := w.resolver(h3, nil)(host)
		ep.H3Preloaded = host == "g.cdn"
		return ep, ok
	}
	b := New(w.probe, Config{Mode: ModeH3, Resolver: res})
	log := w.visit(t, b, testPage([]string{"g.cdn"}, true))
	if log.Entries[1].Protocol != "h3" {
		t.Fatalf("preloaded host used %s on first visit, want h3", log.Entries[1].Protocol)
	}
}

func TestPerResourceEligibilitySplitsConnections(t *testing.T) {
	w := newTestWorld(t)
	h3 := map[string]bool{"a.cdn": true}
	b := New(w.probe, Config{Mode: ModeH3, Resolver: w.resolver(h3, nil)})

	page := &webgen.Page{Site: "site.sim"}
	page.Resources = append(page.Resources,
		testResource("site.sim", "/", webgen.Resource{Size: 1000, Type: webgen.Document}),
		testResource("a.cdn", "/h3", webgen.Resource{Size: 1000, Type: webgen.Script, H3Eligible: true}),
		testResource("a.cdn", "/h2", webgen.Resource{Size: 1000, Type: webgen.Script, H3Eligible: false}),
	)
	w.visit(t, b, page) // warm-up: discovery
	b.ClearSessions()
	log := w.visit(t, b, page)
	protos := map[string]string{}
	for _, e := range log.Entries[1:] {
		protos[e.Path] = e.Protocol
	}
	if protos["/h3"] != "h3" || protos["/h2"] != "h2" {
		t.Fatalf("split wrong: %v", protos)
	}
}

func TestH1OnlyHostUsesH1(t *testing.T) {
	w := newTestWorld(t)
	h1 := map[string]bool{"legacy.cdn": true}
	b := New(w.probe, Config{Mode: ModeH3, Resolver: w.resolver(nil, h1)})
	log := w.visit(t, b, testPage([]string{"legacy.cdn"}, false))
	if log.Entries[1].Protocol != "http/1.1" {
		t.Fatalf("H1-only host got %s", log.Entries[1].Protocol)
	}
}

func TestH1ModeParallelConns(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH1, Resolver: w.resolver(nil, nil)})
	// 16 same-host fetches: testPage alternates scripts and images, so
	// each discovery wave issues 8 at once and the cap of 6 binds.
	hosts := make([]string, 16)
	for i := range hosts {
		hosts[i] = "a.cdn"
	}
	log := w.visit(t, b, testPage(hosts, false))
	for _, e := range log.Entries {
		if e.Protocol != "http/1.1" || e.Failed {
			t.Fatalf("entry %+v", e)
		}
	}
	if got, want := b.Stats().H1Conns, int64(1+maxH1ConnsPerHost); got != want { // origin + a.cdn at the cap
		t.Fatalf("opened %d H1 conns, want %d", got, want)
	}
	if log.ReusedConns == 0 {
		t.Fatal("no fetch queued on an open connection past the cap")
	}
}

func TestUnknownHostFailsEntry(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH2, Resolver: w.resolver(nil, nil)})
	log := w.visit(t, b, testPage([]string{"unknown.sim", "a.cdn"}, false))
	var failed, ok int
	for _, e := range log.Entries {
		if e.Failed {
			failed++
		} else {
			ok++
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d", failed, ok)
	}
}

func TestTimingPhasesConsistent(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH2, Resolver: w.resolver(nil, nil)})
	log := w.visit(t, b, testPage([]string{"a.cdn", "a.cdn"}, false))
	for _, e := range log.Entries {
		if e.Wait <= 0 {
			t.Fatalf("entry %s: wait %v", e.Host, e.Wait)
		}
		if e.ReusedConn && e.Connect != 0 {
			t.Fatalf("reused entry has connect %v", e.Connect)
		}
		if !e.ReusedConn && e.Connect <= 0 {
			t.Fatalf("fresh entry has connect %v", e.Connect)
		}
		if e.Blocked < 0 || e.Receive < 0 {
			t.Fatalf("negative phases: %+v", e)
		}
	}
}

func TestConsecutiveVisitsResume(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{
		Mode:          ModeH3,
		Resolver:      w.resolver(map[string]bool{"a.cdn": true}, nil),
		EnableZeroRTT: true,
	})
	page := testPage([]string{"a.cdn", "a.cdn"}, true)
	w.visit(t, b, page) // teaches Alt-Svc + tokens
	// Sessions intentionally NOT cleared: consecutive browsing.
	log := w.visit(t, b, page)
	if log.ResumedConns == 0 {
		t.Fatal("no resumed connections on consecutive visit")
	}
	// And with the standard cleanup, no resumption:
	b.ClearSessions()
	log = w.visit(t, b, page)
	if log.ResumedConns != 0 {
		t.Fatalf("resumed %d after ClearSessions", log.ResumedConns)
	}
}

func TestDiscoveryWaves(t *testing.T) {
	page := testPage([]string{"a.cdn", "b.cdn", "c.cdn", "d.cdn"}, false)
	// Types alternate Script, Image, Script, Image.
	waves := discoveryWaves(page)
	if len(waves[0]) != 1 || waves[0][0] != 0 {
		t.Fatalf("wave 0 = %v", waves[0])
	}
	if len(waves[1]) != 2 || len(waves[2]) != 2 {
		t.Fatalf("waves = %v", waves)
	}
}

func TestWavesOrderStartTimes(t *testing.T) {
	w := newTestWorld(t)
	b := New(w.probe, Config{Mode: ModeH2, Resolver: w.resolver(nil, nil)})
	page := testPage([]string{"a.cdn", "b.cdn"}, false) // script + image
	log := w.visit(t, b, page)
	doc, script, image := log.Entries[0], log.Entries[1], log.Entries[2]
	if !(doc.Started < script.Started && script.Started < image.Started) {
		t.Fatalf("wave starts not ordered: %v %v %v", doc.Started, script.Started, image.Started)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeH2.String() != "h2" || ModeH3.String() != "h3" || ModeH1.String() != "http/1.1" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() != "?" {
		t.Fatal("unknown mode string wrong")
	}
}

func TestBrowserUsesRegistryHeaders(t *testing.T) {
	// Sanity: the test edge serves a Cloudflare signature the real
	// registry also produces, keeping this suite aligned with locedge.
	if _, ok := cdn.ProviderByName("Cloudflare"); !ok {
		t.Fatal("registry lost Cloudflare")
	}
}
