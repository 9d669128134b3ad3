package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/har"
)

// heapSampleInterval is how often the heap sampler reads the runtime's
// memory metrics while a campaign runs.
const heapSampleInterval = 2 * time.Millisecond

// heapSampler follows two quantities while a campaign runs. The live heap
// (bytes marked by the last completed GC cycle) gives the end-to-end
// memory metric through its time-weighted mean: a single high reading —
// the maximum, or a high percentile of the sixty or so GC cycles in a
// repeat — depends on which burst of concurrent visits a cycle happens to
// catch, and moved 40 % between repeats of identical work on population.
// Each reading is weighted by the host time until the next one, because
// the campaign's workers starve the sampler to a fifth of its nominal
// rate, unevenly. The highest reading is still reported per layer, as is
// the high-water of HeapInuse+StackInuse (what a peak-RSS readout would
// follow, which swings with GC pacing).
// runtime/metrics reads do not stop the world, unlike ReadMemStats.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}

	samples   []metrics.Sample
	at        []time.Time // when each reading was taken
	live      []uint64    // the live heap at that time
	inusePeak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		samples: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
			{Name: "/memory/classes/heap/stacks:bytes"},
		},
	}
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	h.at = append(h.at, time.Now())
	h.live = append(h.live, h.samples[0].Value.Uint64())
	inuse := h.samples[1].Value.Uint64() + h.samples[2].Value.Uint64() + h.samples[3].Value.Uint64()
	h.inusePeak = max(h.inusePeak, inuse)
}

// finish stops the sampler, waits for it, takes a last sample, and
// reports the live heap's time-weighted mean and maximum and the in-use
// high-water mark.
func (h *heapSampler) finish() (liveMean float64, livePeak, inusePeak uint64) {
	close(h.stop)
	<-h.done
	h.sample()
	return weightedMean(h.at, h.live), slices.Max(h.live), h.inusePeak
}

// weightedMean is the mean of a step function that takes the value
// live[i] from at[i] until at[i+1]; the last reading only closes the
// last step.
func weightedMean(at []time.Time, live []uint64) float64 {
	n := len(at)
	total := at[n-1].Sub(at[0]).Seconds()
	if total <= 0 {
		return float64(live[n-1])
	}
	var area float64
	for i := 0; i+1 < n; i++ {
		area += float64(live[i]) * at[i+1].Sub(at[i]).Seconds()
	}
	return area / total
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// repeat is what one run of a workload's campaign cost on the host.
type repeat struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	liveMean   float64 // bytes, time-weighted over the campaign
	livePeak   uint64
	inusePeak  uint64
	gcCycles   uint32
	visits     int64
	ds         *core.Dataset
}

// runRepeat runs one campaign with the heap collected beforehand, so
// every repeat starts from the same live set. Only the RunCampaign call
// is inside the timed section.
func runRepeat(cfg core.CampaignConfig) (repeat, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return repeat{}, err
	}
	sampler := startHeapSampler()
	start := time.Now()
	ds, err := core.RunCampaign(cfg)
	wall := time.Since(start)
	liveMean, livePeak, inuse := sampler.finish()
	if err != nil {
		return repeat{}, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return repeat{}, err
	}
	runtime.ReadMemStats(&after)
	return repeat{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		liveMean:   liveMean,
		livePeak:   livePeak,
		inusePeak:  inuse,
		gcCycles:   after.NumGC - before.NumGC,
		visits:     visits(ds),
		ds:         ds,
	}, nil
}

// visits is the number of measured page loads a dataset folded.
func visits(ds *core.Dataset) int64 { return ds.Stats.PagesFolded }

// fetchTotals sums the fetch counters over every (mode, vantage) group.
type fetchTotals struct {
	entries, failed, retries, reused, resumed int64
}

func sumFetches(ds *core.Dataset) fetchTotals {
	var t fetchTotals
	for _, k := range ds.Metrics.Keys() {
		g := ds.Metrics.Lookup(k)
		t.entries += g.Entries.Value()
		t.failed += g.Failed.Value()
		t.retries += g.Retries.Value()
		t.reused += g.Reused.Value()
		t.resumed += g.Resumed.Value()
	}
	return t
}

// simDigest fingerprints everything a campaign simulated: the execution
// counters, the streamed aggregates, the population report, and — when
// every PageLog was retained — the serialized dataset. Two runs of one
// commit, seed and size must agree on it exactly; a speed-only change
// must agree with its parent.
func simDigest(ds *core.Dataset, retention har.RetentionKind) (string, error) {
	h := sha256.New()
	st := ds.Stats
	counters := struct {
		Events, PagesFolded                                       int64
		Recovery                                                  any
		LossDrops, BurstDrops, OutageDrops, QueueDrops, Reordered int64
	}{st.Events, st.PagesFolded, st.Recovery, st.LossDrops, st.BurstDrops, st.OutageDrops, st.QueueDrops, st.Reordered}
	enc := json.NewEncoder(h)
	for _, part := range []any{counters, ds.Metrics, ds.Traffic} {
		if err := enc.Encode(part); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	if retention == har.RetainAll {
		if err := ds.SaveJSON(h); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// verifyRepeat checks one repeat's dataset: the output invariants, and
// that it simulated exactly what the earlier repeats did (want is their
// digest, empty for the first). It returns the dataset's digest.
func verifyRepeat(cfg core.CampaignConfig, ds *core.Dataset, want string) (string, error) {
	if err := checkDataset(cfg, ds); err != nil {
		return "", err
	}
	got, err := simDigest(ds, cfg.Retention.Kind)
	if err != nil {
		return "", err
	}
	if want != "" && got != want {
		return "", fmt.Errorf("determinism: sim_digest %s differs from the first repeat's %s", got, want)
	}
	return got, nil
}

// checkDataset verifies the output invariants every run must satisfy.
// The error names the invariant that failed.
func checkDataset(cfg core.CampaignConfig, ds *core.Dataset) error {
	st := ds.Stats
	if want := expectedVisits(cfg); want != 0 && st.PagesFolded != want {
		return fmt.Errorf("invariant PagesFolded == expected visits: %d != %d", st.PagesFolded, want)
	}
	if cfg.Traffic != nil {
		c := st.Traffic
		if c.VisitsGenerated != c.VisitsCompleted+c.VisitsShed {
			return fmt.Errorf("invariant VisitsGenerated == Completed + Shed: %d != %d + %d",
				c.VisitsGenerated, c.VisitsCompleted, c.VisitsShed)
		}
		if st.PagesFolded != c.VisitsCompleted {
			return fmt.Errorf("invariant PagesFolded == VisitsCompleted: %d != %d", st.PagesFolded, c.VisitsCompleted)
		}
	}
	if st.PagesFolded <= 0 {
		return fmt.Errorf("invariant PagesFolded > 0: %d", st.PagesFolded)
	}
	switch cfg.Retention.Kind {
	case har.RetainNone:
		if st.PagesRetained != 0 {
			return fmt.Errorf("invariant PagesRetained == 0 under RetainNone: %d", st.PagesRetained)
		}
	case har.RetainAll:
		if st.PagesRetained != st.PagesFolded {
			return fmt.Errorf("invariant PagesRetained == PagesFolded under RetainAll: %d != %d", st.PagesRetained, st.PagesFolded)
		}
	}
	if got := int64(ds.Metrics.Pages()); got != st.PagesFolded {
		return fmt.Errorf("invariant Metrics.Pages == PagesFolded: %d != %d", got, st.PagesFolded)
	}
	resources := make(map[string]int, len(ds.Corpus.Pages))
	for i := range ds.Corpus.Pages {
		resources[ds.Corpus.Pages[i].Site] = len(ds.Corpus.Pages[i].Resources)
	}
	for mode, log := range ds.Logs {
		if err := checkPageLogs(log.Pages, resources); err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
	}
	return nil
}

// checkPageLogs verifies each retained PageLog has one entry per page
// resource and HAR-consistent handshake timings.
func checkPageLogs(pages []har.PageLog, resources map[string]int) error {
	for i := range pages {
		p := &pages[i]
		if want := resources[p.Site]; len(p.Entries) != want {
			return fmt.Errorf("invariant one entry per resource: %s has %d entries for %d resources", p.Site, len(p.Entries), want)
		}
		for j := range p.Entries {
			if e := &p.Entries[j]; e.SSL < 0 || e.SSL > e.Connect {
				return fmt.Errorf("invariant 0 <= SSL <= Connect: %s %s has SSL %v, Connect %v", p.Site, e.URL, e.SSL, e.Connect)
			}
		}
	}
	return nil
}
