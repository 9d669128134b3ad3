package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/httpsim"
	"h3cdn/internal/simnet"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// TestEpochPoolsHoldNoEarlierEpoch runs a two-epoch population shard on
// one carried Pools, the way runPopulation does, and then walks
// everything the Pools and the shard's session pools (browsers, random
// generators) reach — free lists, retired-but-not-yet-free
// lists, arenas, caches — looking for the first epoch's Scheduler,
// Network or any of its Hosts. Finding one means a pooled struct kept a
// finished epoch's universe alive, and with it whatever that universe
// still pointed at. What is free (everything but the retired lists,
// whose structs are not reset yet) may reach no scheduler, network or
// host at all, of either epoch. The second epoch is the shorter one, so it runs
// fewer events than the first: a stamp from the first epoch must count
// as returned because its scheduler is another one, not because the
// new count overtook it. The test also requires the carried Pools to
// be warm: the second epoch takes far fewer new wire buffers than the
// first. It runs an H2 shard (TCP conns) and an H3 one (QUIC streams,
// H3 stream states).
func TestEpochPoolsHoldNoEarlierEpoch(t *testing.T) {
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		t.Run(mode.String(), func(t *testing.T) { testEpochPools(t, mode) })
	}
}

func testEpochPools(t *testing.T, mode browser.Mode) {
	cfg := CampaignConfig{
		Seed:         7,
		CorpusConfig: webgen.Config{Seed: 7, NumPages: 12, MeanResources: 20},
		Traffic: &traffic.Config{
			Users: 40, ArrivalRate: 2, Duration: 13 * time.Second, EpochInterval: 10 * time.Second,
			CacheTTL: 15 * time.Second, ThinkTime: 2 * time.Second, SessionVisits: 3,
		},
	}
	corpus := webgen.Generate(cfg.CorpusConfig)
	topo := NewTopology(corpus)
	job := shardJob{mode: mode, point: vantage.Points()[0], lo: 0, hi: 40}
	pools := &httpsim.Pools{}
	sp := &sessionPools{}

	var epochs []*Universe
	var news []uint64
	err := runEpochs(cfg, topo, job, newVisitSink(cfg, job), pools, sp, func(u *Universe) {
		epochs = append(epochs, u)
		news = append(news, pools.Arena.Stats().News)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[1].Events() >= epochs[0].Events() {
		t.Fatalf("%d epochs, want 2, the second one shorter", len(epochs))
	}
	first := map[uintptr]string{
		reflect.ValueOf(epochs[0].Sched).Pointer(): "epoch 0 scheduler",
		reflect.ValueOf(epochs[0].Net).Pointer():   "epoch 0 network",
	}
	for addr := range epochs[0].nodes {
		if h := epochs[0].Net.Host(addr); h != nil {
			first[reflect.ValueOf(h).Pointer()] = "epoch 0 host " + string(addr)
		}
	}
	first[reflect.ValueOf(epochs[0].Client).Pointer()] = "epoch 0 probe host"

	w := walker{seen: make(map[walkKey]bool), targets: first}
	w.walk(reflect.ValueOf(pools), "pools")
	w.walk(reflect.ValueOf(sp), "sessions")
	if len(w.found) > 0 {
		t.Fatalf("the carried Pools still reaches the first epoch:\n%v", w.found)
	}
	if w.objects < 1000 {
		t.Fatalf("walked only %d objects", w.objects)
	}
	free := walker{seen: make(map[walkKey]bool), skipDying: true, anyOf: map[reflect.Type]bool{
		reflect.TypeOf(epochs[0].Sched): true, reflect.TypeOf(epochs[0].Net): true, reflect.TypeOf(epochs[0].Client): true,
	}}
	free.walk(reflect.ValueOf(pools), "pools")
	// The session pools hold nothing retired after the last epoch: every
	// browser is free, detached, and reaches no universe at all.
	free.skipDying = false
	free.walk(reflect.ValueOf(sp), "sessions")
	if len(free.found) > 0 {
		t.Fatalf("free pooled structs reach a universe:\n%v", free.found)
	}
	if browsers := reflect.ValueOf(sp.browsers).FieldByName("free").Len(); browsers == 0 {
		t.Fatalf("the shard kept %d browsers for reuse", browsers)
	}
	if second := news[1] - news[0]; second*4 > news[0] {
		t.Fatalf("second epoch took %d new wire buffers, the first %d: the pools did not carry", second, news[0])
	}
}

// TestWorkerPoolsHoldNoEarlierShard runs shards through runShard on one
// Pools, the way a campaign worker does, and then walks everything the
// Pools reaches — free lists, retired lists, arenas, caches. It may
// reach no Scheduler, Network or Host at all: not an earlier shard's,
// which a retired struct that no later Get promoted would keep alive
// (an H3 shard's stream states, when an H2 shard follows; it fails
// without runShard's Promote), and not the last one's, whose scheduler
// also runs no more. The Pools must also be warm: the second shard,
// which runs the first one's mode, takes at most a quarter of the new
// wire, TCP payload and QUIC payload buffers the first took. Three
// scripted shards, H3, H3 and H2, and two population shards.
func TestWorkerPoolsHoldNoEarlierShard(t *testing.T) {
	corpusCfg := webgen.Config{Seed: 7, NumPages: 12, MeanResources: 20}
	point := vantage.Points()[0]
	scripted := CampaignConfig{Seed: 7, CorpusConfig: corpusCfg}
	population := CampaignConfig{
		Seed:         7,
		CorpusConfig: corpusCfg,
		Traffic: &traffic.Config{
			Users: 80, ArrivalRate: 4, Duration: 13 * time.Second, EpochInterval: 10 * time.Second,
			CacheTTL: 15 * time.Second, ThinkTime: 2 * time.Second, SessionVisits: 3, UsersPerShard: 40,
		},
	}
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		jobs []shardJob
	}{
		{"h3 then h2", scripted, []shardJob{
			{mode: browser.ModeH3, point: point, lo: 0, hi: 4},
			{mode: browser.ModeH3, point: point, shard: 1, lo: 4, hi: 8},
			{mode: browser.ModeH2, point: point, shard: 2, lo: 8, hi: 12},
		}},
		{"population", population, []shardJob{
			{mode: browser.ModeH3, point: point, lo: 0, hi: 40},
			{mode: browser.ModeH3, point: point, shard: 1, lo: 40, hi: 80},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			topo := NewTopology(webgen.Generate(corpusCfg))
			pools := &httpsim.Pools{}
			news := make([]httpsim.PoolNews, len(tc.jobs))
			for i, job := range tc.jobs {
				if r := runShard(cfg, topo, job, pools); r.err != nil {
					t.Fatal(r.err)
				} else if r.stats.PagesFolded == 0 {
					t.Fatalf("shard %d folded no visits", i)
				}
				news[i] = pools.News()
			}
			w := walker{seen: make(map[walkKey]bool), anyOf: map[reflect.Type]bool{
				reflect.TypeOf(&simnet.Scheduler{}): true, reflect.TypeOf(&simnet.Network{}): true, reflect.TypeOf(&simnet.Host{}): true,
			}}
			w.walk(reflect.ValueOf(pools), "pools")
			if len(w.found) > 0 {
				t.Fatalf("the worker's Pools still reaches a finished shard:\n%v", w.found)
			}
			if w.objects < 20 {
				t.Fatalf("walked only %d objects", w.objects)
			}
			for _, arena := range []struct {
				name          string
				first, second uint64
			}{
				{"wire", news[0].Wire, news[1].Wire - news[0].Wire},
				{"TCP payload", news[0].TCP, news[1].TCP - news[0].TCP},
				{"QUIC payload", news[0].QUIC, news[1].QUIC - news[0].QUIC},
			} {
				if arena.first == 0 || arena.second*4 > arena.first {
					t.Fatalf("second shard took %d new %s buffers, the first %d: the pools did not carry", arena.second, arena.name, arena.first)
				}
				t.Logf("new %s buffers: first shard %d, second %d", arena.name, arena.first, arena.second)
			}
			t.Logf("walked %d objects", w.objects)
		})
	}
}

type walkKey struct {
	t reflect.Type
	p uintptr
}

// walker follows every pointer, slice (to its capacity: what lies past
// the length is pinned too), map and interface reachable from a value,
// noting the pointers it meets that are targets or of an anyOf type.
// With skipDying it does not enter a bufpool.Recycler's retired list.
// Closures are opaque to reflection, which is why pooled structs bind
// theirs to themselves only (see tcpsim.newConn).
type walker struct {
	seen      map[walkKey]bool
	targets   map[uintptr]string
	anyOf     map[reflect.Type]bool
	skipDying bool
	found     []string
	objects   int
}

func (w *walker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if what, ok := w.targets[v.Pointer()]; ok {
			w.found = append(w.found, fmt.Sprintf("%s: %s", path, what))
			return
		}
		if w.anyOf[v.Type()] {
			w.found = append(w.found, fmt.Sprintf("%s: a %v", path, v.Type()))
			return
		}
		k := walkKey{v.Type(), v.Pointer()}
		if w.seen[k] {
			return
		}
		w.seen[k] = true
		w.objects++
		w.walk(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if w.skipDying && f.Name == "dying" && strings.HasPrefix(v.Type().Name(), "Recycler[") {
				continue
			}
			w.walk(v.Field(i), path+"."+f.Name)
		}
	case reflect.Slice:
		if v.IsNil() || !hasPointers(v.Type().Elem()) {
			return
		}
		k := walkKey{v.Type(), v.Pointer()}
		if w.seen[k] {
			return
		}
		w.seen[k] = true
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			w.walk(full.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Array:
		if !hasPointers(v.Type().Elem()) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		it := v.MapRange()
		for it.Next() {
			w.walk(it.Key(), path+"{key}")
			w.walk(it.Value(), fmt.Sprintf("%s{%v}", path, it.Key()))
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
