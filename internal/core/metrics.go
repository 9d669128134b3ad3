package core

import (
	"sort"
	"time"

	"h3cdn/internal/analysis"
	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/locedge"
	"h3cdn/internal/sketch"
)

// ModeStats aggregates one site's measurements for one browsing mode,
// averaged across probes.
type ModeStats struct {
	// PLT is the median page load time across probe visits.
	PLT time.Duration
	// MeanConnect averages the connection phase over connection-opening
	// entries only (reused entries report connect = 0 and are excluded,
	// matching how HAR analyses treat connect = -1).
	MeanConnect time.Duration
	// MeanWait / MeanReceive average over all successful entries.
	MeanWait    time.Duration
	MeanReceive time.Duration
	// ReusedConns / ResumedConns are mean per-visit counts.
	ReusedConns  float64
	ResumedConns float64
}

// SiteMetrics aggregates one site across modes.
type SiteMetrics struct {
	Site string
	// TotalEntries / CDNEntries describe composition (from the H3-mode
	// log, classified by locedge).
	TotalEntries int
	CDNEntries   int
	// H3CDNEntries counts CDN entries actually fetched over HTTP/3 in
	// the H3-mode run — Fig. 6a's grouping key ("number of H3-enabled
	// CDN resources").
	H3CDNEntries int
	// Providers are the distinct CDN providers observed via locedge.
	Providers []string
	// ByMode holds the per-mode aggregates.
	ByMode map[browser.Mode]ModeStats
}

// PLTReduction is PLT_H2 − PLT_H3 (positive = H3 faster), the paper's
// X_reduction with X = PLT.
func (m *SiteMetrics) PLTReduction() time.Duration {
	return m.ByMode[browser.ModeH2].PLT - m.ByMode[browser.ModeH3].PLT
}

// ConnectReduction / WaitReduction / ReceiveReduction mirror Fig. 6(b).
func (m *SiteMetrics) ConnectReduction() time.Duration {
	return m.ByMode[browser.ModeH2].MeanConnect - m.ByMode[browser.ModeH3].MeanConnect
}

func (m *SiteMetrics) WaitReduction() time.Duration {
	return m.ByMode[browser.ModeH2].MeanWait - m.ByMode[browser.ModeH3].MeanWait
}

func (m *SiteMetrics) ReceiveReduction() time.Duration {
	return m.ByMode[browser.ModeH2].MeanReceive - m.ByMode[browser.ModeH3].MeanReceive
}

// ReuseDifference is reused(H2) − reused(H3), Fig. 7(b)'s metric.
func (m *SiteMetrics) ReuseDifference() float64 {
	return m.ByMode[browser.ModeH2].ReusedConns - m.ByMode[browser.ModeH3].ReusedConns
}

// ComputeSiteMetrics aggregates a dataset per site, averaging across
// probes, ordered by site name.
func ComputeSiteMetrics(ds *Dataset) []SiteMetrics {
	bySite := make(map[string]*SiteMetrics)
	order := make([]string, 0, len(ds.Corpus.Pages))

	for mode, log := range ds.Logs {
		type acc struct {
			plts    []float64 // ms, one per probe visit
			connSum time.Duration
			connN   int
			waitSum time.Duration
			recvSum time.Duration
			entryN  int
			reused  int
			resumed int
			pages   int
		}
		accs := make(map[string]*acc)
		for i := range log.Pages {
			p := &log.Pages[i]
			a := accs[p.Site]
			if a == nil {
				a = &acc{}
				accs[p.Site] = a
			}
			a.pages++
			a.plts = append(a.plts, msOf(p.PLT))
			a.reused += p.ReusedConns
			a.resumed += p.ResumedConns
			for j := range p.Entries {
				e := &p.Entries[j]
				if e.Failed {
					continue
				}
				a.entryN++
				a.waitSum += e.Wait
				a.recvSum += e.Receive
				if !e.ReusedConn {
					a.connSum += e.Connect
					a.connN++
				}
			}
		}
		for site, a := range accs {
			sm := bySite[site]
			if sm == nil {
				sm = &SiteMetrics{Site: site, ByMode: make(map[browser.Mode]ModeStats)}
				bySite[site] = sm
				order = append(order, site)
			}
			var ms ModeStats
			if a.pages > 0 {
				// Median across probes: robust to rare timeout
				// outliers (e.g. a lost SYN costing a full RTO).
				ms.PLT = time.Duration(analysis.Median(a.plts) * float64(time.Millisecond))
				ms.ReusedConns = float64(a.reused) / float64(a.pages)
				ms.ResumedConns = float64(a.resumed) / float64(a.pages)
			}
			if a.connN > 0 {
				ms.MeanConnect = a.connSum / time.Duration(a.connN)
			}
			if a.entryN > 0 {
				ms.MeanWait = a.waitSum / time.Duration(a.entryN)
				ms.MeanReceive = a.recvSum / time.Duration(a.entryN)
			}
			sm.ByMode[mode] = ms
		}
	}

	// Composition and provider sets come from the H3-mode log when
	// available (it is the log the paper's Table II derives from),
	// falling back to any mode.
	compLog := ds.Logs[browser.ModeH3]
	if compLog == nil {
		for _, l := range ds.Logs {
			compLog = l
			break
		}
	}
	if compLog != nil {
		seenSite := make(map[string]bool)
		for i := range compLog.Pages {
			p := &compLog.Pages[i]
			if seenSite[p.Site] {
				continue // composition from the first probe only
			}
			seenSite[p.Site] = true
			sm := bySite[p.Site]
			if sm == nil {
				continue
			}
			provs := make(map[string]bool)
			for j := range p.Entries {
				e := &p.Entries[j]
				sm.TotalEntries++
				cls := locedge.Classify(e.Header)
				if !cls.IsCDN {
					continue
				}
				sm.CDNEntries++
				provs[cls.Provider] = true
				if e.Protocol == "h3" {
					sm.H3CDNEntries++
				}
			}
			sm.Providers = make([]string, 0, len(provs))
			for prov := range provs {
				sm.Providers = append(sm.Providers, prov)
			}
			sort.Strings(sm.Providers)
		}
	}

	sort.Strings(order)
	out := make([]SiteMetrics, 0, len(order))
	for _, site := range order {
		out = append(out, *bySite[site])
	}
	return out
}

// msOf converts to float milliseconds for analysis routines.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PLTMedianMs returns a mode's campaign-wide median page load time in
// milliseconds. It prefers the exact computation over retained PageLogs;
// when the retention policy kept only a subset (or none) of them, it
// answers from the streamed quantile sketch instead — approx is then
// true and the value carries the sketch's relative-error bound
// (Metrics.Alpha). ok is false when the mode has neither retained pages
// nor sketch state.
func (ds *Dataset) PLTMedianMs(mode browser.Mode) (ms float64, approx, ok bool) {
	log := ds.Logs[mode]
	retained := 0
	if log != nil {
		retained = len(log.Pages)
	}
	var g *sketch.GroupMetrics
	if ds.Metrics != nil {
		g = ds.Metrics.ModeGroup(mode.String())
	}
	// Exact path: every folded page is still in the dataset (or no
	// sketch exists to prove otherwise, e.g. a loaded dataset).
	if retained > 0 && (g == nil || uint64(retained) == g.Pages) {
		plts := make([]float64, retained)
		for i := range log.Pages {
			plts[i] = msOf(log.Pages[i].PLT)
		}
		return analysis.Median(plts), false, true
	}
	if g != nil && g.Pages > 0 {
		return g.MedianPLTMs(), true, true
	}
	return 0, false, false
}

// entriesOf returns all successful entries across a mode's log.
func entriesOf(ds *Dataset, mode browser.Mode) []har.Entry {
	log := ds.Logs[mode]
	if log == nil {
		return nil
	}
	var out []har.Entry
	for i := range log.Pages {
		for j := range log.Pages[i].Entries {
			e := log.Pages[i].Entries[j]
			if !e.Failed {
				out = append(out, e)
			}
		}
	}
	return out
}

// groupKey groups sites into Fig. 6a quartiles by H3-enabled CDN count.
func groupByH3CDN(sms []SiteMetrics) [4][]int {
	keys := make([]float64, len(sms))
	for i := range sms {
		keys[i] = float64(sms[i].H3CDNEntries)
	}
	return analysis.QuartileGroups(keys)
}
