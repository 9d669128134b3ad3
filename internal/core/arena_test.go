package core

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/bufpool"
	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/webgen"
)

// TestArenaBalancedAfterVisits is the arena leak check: after every
// visit, the universe's buffer arena must have every Get matched by a
// Put (Rewind's outstanding balance is zero). A non-zero balance means
// a transport or HTTP layer dropped a pooled buffer without returning
// it — a leak that would grow the warm-shard footprint one visit at a
// time. The impaired rows (bench's lossy profile) reach the paths a
// clean visit never runs: reassembly chunks abandoned at an aborted
// teardown, duplicate and overlapping segments, retried fetches.
//
// h2/lossy seed 13 is the half-open-connection witness: in its third
// visit a client's RST is lost, and an established server-side TLS
// connection with 150 bytes buffered never sees a close of any kind
// before the scheduler drains. That is why record accumulators live in
// their own recycler (Pools.Recv) whose balance is not a rule — charged
// to the wire arena, that orphan fails this row with "arena balance 1".
//
// Pools.Recv has its own two checks. Replaying a universe's pages takes
// every accumulator from the free lists (clean rows), and a
// population-style universe — overlapping visits under one drain, never
// rewound — still recycles, because accumulators are Put back when
// their connection closes instead of waiting for Rewind.
func TestArenaBalancedAfterVisits(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{Seed: 7, NumPages: 4, MeanResources: 10})
	lossy := simnet.GilbertElliott(0.02, 4)
	lossy.JitterMax = 2 * time.Millisecond
	lossy.ReorderRate = 0.01
	lossy.ReorderDelay = 2 * time.Millisecond
	rows := []struct {
		name   string
		impair *simnet.Impairment
		seeds  []uint64
	}{
		{"", nil, []uint64{11}},
		{"/lossy", &lossy, []uint64{11, 12, 13}},
	}
	for _, row := range rows {
		for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
			t.Run(mode.String()+row.name, func(t *testing.T) {
				var total bufpool.ArenaStats
				for _, seed := range row.seeds {
					u, err := NewUniverse(UniverseConfig{Seed: seed, Corpus: corpus, Impair: row.impair})
					if err != nil {
						t.Fatal(err)
					}
					defer u.Close()
					b := u.NewBrowser(browser.Config{Mode: mode, EnableZeroRTT: true})
					for i := range corpus.Pages {
						// runVisit fails the visit on a non-zero balance.
						if err := u.RunVisitDiscard(b, &corpus.Pages[i]); err != nil {
							t.Fatalf("seed %d visit %d: %v", seed, i, err)
						}
						b.ClearSessions()
					}
					if row.impair == nil {
						warm := u.Pools().Recv.Stats().News
						for i := range corpus.Pages {
							if err := u.RunVisitDiscard(b, &corpus.Pages[i]); err != nil {
								t.Fatalf("seed %d replayed visit %d: %v", seed, i, err)
							}
							b.ClearSessions()
						}
						if got := u.Pools().Recv.Stats().News; got != warm || warm == 0 {
							t.Fatalf("seed %d: replaying the pages grew the accumulator arena: news %d -> %d", seed, warm, got)
						}
					}
					st := u.Pools().Arena.Stats()
					if st.Gets != st.Puts {
						t.Fatalf("seed %d: arena gets %d != puts %d", seed, st.Gets, st.Puts)
					}
					total.Gets += st.Gets
					total.News += st.News
					if row.impair != nil && u.Net.Stats().BurstDrops == 0 {
						t.Fatalf("seed %d: impaired row dropped nothing — profile not applied", seed)
					}
				}
				if total.Gets == 0 {
					t.Fatal("arena never used — pool wiring broken")
				}
				t.Logf("%s%s: gets=puts=%d news=%d", mode, row.name, total.Gets, total.News)
			})
		}
	}
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		t.Run(mode.String()+"/overlapping", func(t *testing.T) {
			u, err := NewUniverse(UniverseConfig{Seed: 11, Corpus: corpus})
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			const visits = 12
			done := 0
			for i := 0; i < visits; i++ {
				page := &corpus.Pages[i%len(corpus.Pages)]
				u.Sched.After(time.Duration(i)*300*time.Millisecond, func() {
					b := u.NewBrowser(browser.Config{Mode: mode, EnableZeroRTT: true})
					b.Visit(page, &har.PageLog{}, func(*har.PageLog) {
						done++
						b.CloseAll()
					})
				})
			}
			if err := u.drain(); err != nil || done != visits {
				t.Fatalf("drain: %v, %d of %d visits completed", err, done, visits)
			}
			if bal := u.Pools().Arena.Stats().InUse; bal != 0 {
				t.Fatalf("arena balance %d", bal)
			}
			st := u.Pools().Recv.Stats()
			if st.News == 0 || st.News*4 > st.Gets {
				t.Fatalf("accumulators not recycled inside the drain: news %d of %d gets", st.News, st.Gets)
			}
			t.Logf("%s/overlapping: accumulator gets=%d news=%d", mode, st.Gets, st.News)
		})
	}
}

// TestConcurrentCampaignsShareTopology runs two campaigns concurrently
// against one shared Topology while their shards' universes rewind
// per-visit arenas — the surface the race detector must clear: the
// topology is read-only after construction, and every mutable pool is
// confined to its own universe's scheduler goroutine.
func TestConcurrentCampaignsShareTopology(t *testing.T) {
	corpus := webgen.Generate(webgen.Config{Seed: 21, NumPages: 8, MeanResources: 6})
	topo := NewTopology(corpus)
	cfg := func(seed uint64) CampaignConfig {
		return CampaignConfig{
			Seed:             seed,
			Corpus:           corpus,
			Topology:         topo,
			ProbesPerVantage: 1,
			PagesPerShard:    3,
			Workers:          2,
		}
	}

	// Sequential references first, then the same campaigns concurrently.
	want := make(map[uint64]string)
	for _, seed := range []uint64{101, 202} {
		ref := cfg(seed)
		ref.Sequential = true
		ds, err := RunCampaign(ref)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = string(harJSON(t, ds))
	}

	var wg sync.WaitGroup
	got := make(map[uint64]string)
	errs := make(map[uint64]error)
	var mu sync.Mutex
	for _, seed := range []uint64{101, 202} {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ds, err := RunCampaign(cfg(seed))
			var raw []byte
			if err == nil {
				raw, err = json.Marshal(ds.Logs)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[seed] = err
				return
			}
			got[seed] = string(raw)
		}(seed)
	}
	wg.Wait()
	for seed, err := range errs {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for seed, w := range want {
		if got[seed] != w {
			t.Fatalf("seed %d: concurrent dataset differs from sequential reference", seed)
		}
	}
}
