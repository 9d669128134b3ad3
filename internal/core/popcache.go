package core

import (
	"fmt"
	"strings"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/traffic"
)

// PopCacheRow is one (population size, protocol) cell of the population
// cache-contention sweep: the emergent edge and session behavior when an
// open-loop population of that size browses through shared TTL edges.
type PopCacheRow struct {
	Users int
	Mode  browser.Mode

	// Visits is the completed visit count; ShedFraction the share of
	// generated visits shed at the in-flight bound (open-loop overload).
	Visits       int64
	ShedFraction float64
	// HitRate is the horizon-wide edge hit rate; FirstEpochHitRate and
	// LastEpochHitRate bracket the cache-warming trajectory.
	HitRate           float64
	FirstEpochHitRate float64
	LastEpochHitRate  float64
	// Resumption is the population's session-resumption fraction
	// (resumed connections / opened connections).
	Resumption float64
	// Stampedes counts misses collapsed into an in-progress origin fetch.
	Stampedes int64
	// Cold/warm PLT split: a visit is warm when its document was an edge
	// cache hit. Medians from the campaign's streamed sketches.
	ColdPages uint64
	WarmPages uint64
	ColdPLT   time.Duration
	WarmPLT   time.Duration
}

// popCacheModes are the protocols the sweep compares.
var popCacheModes = []browser.Mode{browser.ModeH1, browser.ModeH2, browser.ModeH3}

// popCacheArms sweep population sizes through the open-loop traffic
// engine, one campaign per (size, protocol). in.Pop supplies the traffic
// shape; its ArrivalRate/Users ratio is held fixed (per-user offered
// load), so the arrival rate scales with each swept population size —
// bigger populations press harder on the same per-shard edges. The base
// config supplies corpus, vantages, and probes; HAR retention is forced
// to none (the sweep reads only sketches and traffic reports), so memory
// stays bounded at any population size.
func popCacheArms(in ReportInputs) ([]Arm, []PopCacheRow, error) {
	tc := in.Pop.WithDefaults()
	perUser := tc.ArrivalRate / float64(tc.Users)
	rows := make([]PopCacheRow, len(in.PopSizes)*len(popCacheModes))
	var arms []Arm
	for _, n := range in.PopSizes {
		for _, mode := range popCacheModes {
			cfg := in.Campaign
			cfg.Modes = []browser.Mode{mode}
			cfg.Retention = har.Retention{Kind: har.RetainNone}
			t := tc
			t.Users = n
			t.ArrivalRate = perUser * float64(n)
			cfg.Traffic = &t
			row := &rows[len(arms)]
			arms = append(arms, Arm{cfg, func(d *Dataset) error {
				*row = popCacheRow(n, mode, d)
				return nil
			}})
		}
	}
	return arms, rows, nil
}

// PopCacheSizes validates a population sweep's traffic shape and returns
// the population sizes the popcache row sweeps: sizes, or ¼×, 1× and 4× of
// tc.Users when sizes is empty. Every size must be positive. Front ends
// call it to fail before any campaign runs.
func PopCacheSizes(tc traffic.Config, sizes []int) ([]int, error) {
	if err := tc.Validate(); err != nil {
		return nil, fmt.Errorf("core: popcache: %w", err)
	}
	if len(sizes) == 0 {
		sizes = []int{tc.Users / 4, tc.Users, tc.Users * 4}
	}
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("core: popcache: population size %d", n)
		}
	}
	return sizes, nil
}

// popCacheRow reduces one campaign's traffic report and sketches to a
// sweep row.
func popCacheRow(users int, mode browser.Mode, ds *Dataset) PopCacheRow {
	row := PopCacheRow{Users: users, Mode: mode}
	rep := ds.Traffic
	row.Visits = rep.Counters.VisitsCompleted
	if rep.Counters.VisitsGenerated > 0 {
		row.ShedFraction = float64(rep.Counters.VisitsShed) / float64(rep.Counters.VisitsGenerated)
	}
	if total := rep.Counters.CacheHits + rep.Counters.CacheMisses; total > 0 {
		row.HitRate = float64(rep.Counters.CacheHits) / float64(total)
	}
	if len(rep.Epochs) > 0 {
		row.FirstEpochHitRate = rep.Epochs[0].HitRate()
		row.LastEpochHitRate = rep.Epochs[len(rep.Epochs)-1].HitRate()
	}
	row.Resumption = rep.ResumptionFraction()
	row.Stampedes = rep.Counters.Stampedes
	if g := ds.Metrics.ModeGroup(mode.String()); g != nil {
		row.ColdPages, row.WarmPages = g.ColdPages, g.WarmPages
		if g.ColdPages > 0 {
			row.ColdPLT = time.Duration(g.PLTCold.Query(0.5) * float64(time.Millisecond))
		}
		if g.WarmPages > 0 {
			row.WarmPLT = time.Duration(g.PLTWarm.Query(0.5) * float64(time.Millisecond))
		}
	}
	return row
}

// RenderPopCache prints the population sweep: per size and protocol, the
// emergent hit-rate trajectory, resumption fraction, stampede and shed
// pressure, and the cold/warm PLT split.
func RenderPopCache(rows []PopCacheRow) string {
	var sb strings.Builder
	sb.WriteString("Population cache contention: open-loop users on shared TTL edge caches\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "users\tmode\tvisits\thit rate\twarming (first→last epoch)\t0-RTT frac\tstampedes\tshed\tcold PLT (ms)\twarm PLT (ms)\twarm share")
	for _, r := range rows {
		warmShare := 0.0
		if tot := r.ColdPages + r.WarmPages; tot > 0 {
			warmShare = float64(r.WarmPages) / float64(tot)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%.1f%%\t%.1f%% → %.1f%%\t%.2f\t%d\t%.2f%%\t%.1f\t%.1f\t%.0f%%\n",
			r.Users, r.Mode, r.Visits,
			100*r.HitRate, 100*r.FirstEpochHitRate, 100*r.LastEpochHitRate,
			r.Resumption, r.Stampedes, 100*r.ShedFraction,
			msOf(r.ColdPLT), msOf(r.WarmPLT), 100*warmShare)
	}
	_ = w.Flush()
	sb.WriteString("larger populations keep the Zipf head resident — hit rates climb, cold-document visits get rarer, and the warm/cold PLT gap is what an edge cache is worth\n")
	return sb.String()
}
