package core

import (
	"fmt"
	"sort"

	"h3cdn/internal/analysis"
	"h3cdn/internal/browser"
	"h3cdn/internal/cdn"
	"h3cdn/internal/har"
	"h3cdn/internal/locedge"
)

// --- Table I ---

// Table1Row is one provider's H3 release record.
type Table1Row struct {
	Provider    string
	ReleaseYear int
	Report      string
}

// Table1 reproduces Table I from the registry, ordered by release year.
func Table1() []Table1Row {
	reg := cdn.Registry()
	out := make([]Table1Row, 0, len(reg))
	for _, p := range reg {
		out = append(out, Table1Row{Provider: p.Name, ReleaseYear: p.ReleaseYear, Report: p.PerformanceNote})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ReleaseYear != out[j].ReleaseYear {
			return out[i].ReleaseYear < out[j].ReleaseYear
		}
		return out[i].Provider < out[j].Provider
	})
	return out
}

// --- Table II ---

// Table2Cell is one (version, population) count with its percentage of
// all requests.
type Table2Cell struct {
	Count int
	Pct   float64
}

// Table2 reproduces the request census by HTTP version × CDN/non-CDN.
type Table2 struct {
	// Rows keyed by "HTTP/2", "HTTP/3", "Others", "All"; each with CDN,
	// NonCDN and All cells.
	CDN    map[string]Table2Cell
	NonCDN map[string]Table2Cell
	All    map[string]Table2Cell
	Total  int
}

func versionRow(protocol string) string {
	switch protocol {
	case "h2":
		return "HTTP/2"
	case "h3":
		return "HTTP/3"
	default:
		return "Others"
	}
}

// ComputeTable2 counts the H3-mode log's requests (the paper's census is
// taken with the H3-enabled browser).
func ComputeTable2(ds *Dataset) Table2 {
	t := Table2{
		CDN:    make(map[string]Table2Cell),
		NonCDN: make(map[string]Table2Cell),
		All:    make(map[string]Table2Cell),
	}
	bump := func(m map[string]Table2Cell, key string) {
		c := m[key]
		c.Count++
		m[key] = c
	}
	for _, e := range entriesOf(ds, browser.ModeH3) {
		t.Total++
		row := versionRow(e.Protocol)
		cls := locedge.Classify(e.Header)
		if cls.IsCDN {
			bump(t.CDN, row)
			bump(t.CDN, "All")
		} else {
			bump(t.NonCDN, row)
			bump(t.NonCDN, "All")
		}
		bump(t.All, row)
		bump(t.All, "All")
	}
	for _, m := range []map[string]Table2Cell{t.CDN, t.NonCDN, t.All} {
		for k, c := range m {
			if t.Total > 0 {
				c.Pct = 100 * float64(c.Count) / float64(t.Total)
			}
			m[k] = c
		}
	}
	return t
}

// --- Figure 2 ---

// Fig2Row is one provider's measured adoption split.
type Fig2Row struct {
	Provider string
	// Requests is the provider's request count in the H3-mode log.
	Requests int
	// RequestShare is the provider's share of all CDN requests.
	RequestShare float64
	// H3Fraction is the share of the provider's own requests over H3.
	H3Fraction float64
	// ShareOfH3 is the provider's share of all H3 CDN requests.
	ShareOfH3 float64
}

// ComputeFigure2 measures per-provider H3 adoption and market share.
func ComputeFigure2(ds *Dataset) []Fig2Row {
	type acc struct{ total, h3 int }
	accs := make(map[string]*acc)
	totalCDN, totalH3 := 0, 0
	for _, e := range entriesOf(ds, browser.ModeH3) {
		cls := locedge.Classify(e.Header)
		if !cls.IsCDN {
			continue
		}
		a := accs[cls.Provider]
		if a == nil {
			a = &acc{}
			accs[cls.Provider] = a
		}
		a.total++
		totalCDN++
		if e.Protocol == "h3" {
			a.h3++
			totalH3++
		}
	}
	out := make([]Fig2Row, 0, len(accs))
	for prov, a := range accs {
		row := Fig2Row{Provider: prov, Requests: a.total}
		if totalCDN > 0 {
			row.RequestShare = float64(a.total) / float64(totalCDN)
		}
		if a.total > 0 {
			row.H3Fraction = float64(a.h3) / float64(a.total)
		}
		if totalH3 > 0 {
			row.ShareOfH3 = float64(a.h3) / float64(totalH3)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Requests > out[j].Requests })
	return out
}

// --- Figure 3 ---

// Fig3 is the CCDF of per-page CDN resource percentage.
type Fig3 struct {
	CCDF             []analysis.Point
	PagesOverHalfCDN float64
}

// ComputeFigure3 measures the per-page CDN share from classified entries.
func ComputeFigure3(ds *Dataset) Fig3 {
	sms := ComputeSiteMetrics(ds)
	shares := make([]float64, 0, len(sms))
	over := 0
	for i := range sms {
		if sms[i].TotalEntries == 0 {
			continue
		}
		share := 100 * float64(sms[i].CDNEntries) / float64(sms[i].TotalEntries)
		shares = append(shares, share)
		if share > 50 {
			over++
		}
	}
	f := Fig3{CCDF: analysis.CCDF(shares)}
	if len(shares) > 0 {
		f.PagesOverHalfCDN = float64(over) / float64(len(shares))
	}
	return f
}

// --- Figure 4 ---

// Fig4 covers both panels: provider presence probability (a) and the
// provider-count histogram (b).
type Fig4 struct {
	Presence   []Fig4Presence
	PagesWithK map[int]int
	AtLeastTwo float64
}

// Fig4Presence is one provider's appearance probability.
type Fig4Presence struct {
	Provider    string
	Probability float64
}

// ComputeFigure4 measures provider presence across pages.
func ComputeFigure4(ds *Dataset) Fig4 {
	sms := ComputeSiteMetrics(ds)
	counts := make(map[string]int)
	withK := make(map[int]int)
	atLeast2 := 0
	for i := range sms {
		for _, prov := range sms[i].Providers {
			counts[prov]++
		}
		k := len(sms[i].Providers)
		withK[k]++
		if k >= 2 {
			atLeast2++
		}
	}
	f := Fig4{PagesWithK: withK}
	for prov, n := range counts {
		f.Presence = append(f.Presence, Fig4Presence{Provider: prov, Probability: float64(n) / float64(len(sms))})
	}
	sort.Slice(f.Presence, func(i, j int) bool {
		if f.Presence[i].Probability != f.Presence[j].Probability {
			return f.Presence[i].Probability > f.Presence[j].Probability
		}
		return f.Presence[i].Provider < f.Presence[j].Provider
	})
	if len(sms) > 0 {
		f.AtLeastTwo = float64(atLeast2) / float64(len(sms))
	}
	return f
}

// --- Figure 5 ---

// Fig5Series is one giant provider's per-page resource-count CCDF.
type Fig5Series struct {
	Provider    string
	CCDF        []analysis.Point
	MedianCount float64
	// FracOver10 is the fraction of pages (using the provider) with
	// more than 10 of its resources — the paper's headline for
	// Cloudflare and Google.
	FracOver10 float64
}

// ComputeFigure5 measures per-provider resource counts per page for the
// four giants.
func ComputeFigure5(ds *Dataset) []Fig5Series {
	// Count provider resources per (site, provider) from classified
	// entries of the composition log.
	counts := make(map[string]map[string]int) // provider → site → count
	firstH3Pages(ds, func(p *har.PageLog) {
		for j := range p.Entries {
			cls := locedge.Classify(p.Entries[j].Header)
			if !cls.IsCDN {
				continue
			}
			if counts[cls.Provider] == nil {
				counts[cls.Provider] = make(map[string]int)
			}
			counts[cls.Provider][p.Site]++
		}
	})
	out := make([]Fig5Series, 0, 4)
	for _, prov := range cdn.GiantProviders() {
		xs := make([]float64, 0, len(counts[prov]))
		over10 := 0
		for _, n := range counts[prov] {
			xs = append(xs, float64(n))
			if n > 10 {
				over10++
			}
		}
		sorted := analysis.NewSorted(xs)
		s := Fig5Series{Provider: prov, CCDF: sorted.CCDF(), MedianCount: sorted.Median()}
		if len(xs) > 0 {
			s.FracOver10 = float64(over10) / float64(len(xs))
		}
		out = append(out, s)
	}
	return out
}

// --- Figure 6 ---

// Fig6aGroup is one quartile group's PLT reduction.
type Fig6aGroup struct {
	Name           string
	Sites          int
	MeanH3CDN      float64
	PLTReductionMs float64
}

// ComputeFigure6a groups sites by quartiles of H3-enabled CDN resource
// count and reports mean PLT reduction per group.
func ComputeFigure6a(ds *Dataset) [4]Fig6aGroup {
	sms := ComputeSiteMetrics(ds)
	groups := groupByH3CDN(sms)
	names := analysis.GroupNames()
	var out [4]Fig6aGroup
	for g := 0; g < 4; g++ {
		var red, key []float64
		for _, idx := range groups[g] {
			red = append(red, msOf(sms[idx].PLTReduction()))
			key = append(key, float64(sms[idx].H3CDNEntries))
		}
		out[g] = Fig6aGroup{
			Name:           names[g],
			Sites:          len(groups[g]),
			MeanH3CDN:      analysis.Mean(key),
			PLTReductionMs: analysis.Mean(red),
		}
	}
	return out
}

// Fig6b carries the reduction CDFs of the three request phases.
type Fig6b struct {
	ConnectCDF []analysis.Point
	WaitCDF    []analysis.Point
	ReceiveCDF []analysis.Point

	MedianConnectMs float64
	MedianWaitMs    float64
	MedianReceiveMs float64
}

// ComputeFigure6b builds per-site phase reductions (connection over
// connection-opening entries; wait/receive over all entries).
func ComputeFigure6b(ds *Dataset) Fig6b {
	sms := ComputeSiteMetrics(ds)
	conn := make([]float64, 0, len(sms))
	wait := make([]float64, 0, len(sms))
	recv := make([]float64, 0, len(sms))
	for i := range sms {
		conn = append(conn, msOf(sms[i].ConnectReduction()))
		wait = append(wait, msOf(sms[i].WaitReduction()))
		recv = append(recv, msOf(sms[i].ReceiveReduction()))
	}
	// One sorted view per phase serves both its CDF and its median.
	sConn, sWait, sRecv := analysis.NewSorted(conn), analysis.NewSorted(wait), analysis.NewSorted(recv)
	return Fig6b{
		ConnectCDF:      sConn.CDF(),
		WaitCDF:         sWait.CDF(),
		ReceiveCDF:      sRecv.CDF(),
		MedianConnectMs: sConn.Median(),
		MedianWaitMs:    sWait.Median(),
		MedianReceiveMs: sRecv.Median(),
	}
}

// --- Figure 7 ---

// Fig7Group is one quartile group's reuse statistics (panels a and b).
type Fig7Group struct {
	Name       string
	H2Reused   float64
	H3Reused   float64
	Difference float64
}

// ComputeFigure7ab reports reused connections per group under both modes.
func ComputeFigure7ab(ds *Dataset) [4]Fig7Group {
	sms := ComputeSiteMetrics(ds)
	groups := groupByH3CDN(sms)
	names := analysis.GroupNames()
	var out [4]Fig7Group
	for g := 0; g < 4; g++ {
		var h2, h3 []float64
		for _, idx := range groups[g] {
			h2 = append(h2, sms[idx].ByMode[browser.ModeH2].ReusedConns)
			h3 = append(h3, sms[idx].ByMode[browser.ModeH3].ReusedConns)
		}
		out[g] = Fig7Group{
			Name:       names[g],
			H2Reused:   analysis.Mean(h2),
			H3Reused:   analysis.Mean(h3),
			Difference: analysis.Mean(h2) - analysis.Mean(h3),
		}
	}
	return out
}

// Fig7cBucket is one reuse-difference quartile's mean PLT reduction.
type Fig7cBucket struct {
	Label          string
	Sites          int
	MeanDifference float64
	PLTReductionMs float64
}

// ComputeFigure7c buckets sites by reuse difference and reports mean PLT
// reduction per bucket (paper: decreasing).
func ComputeFigure7c(ds *Dataset) [4]Fig7cBucket {
	sms := ComputeSiteMetrics(ds)
	keys := make([]float64, len(sms))
	for i := range sms {
		keys[i] = sms[i].ReuseDifference()
	}
	groups := analysis.QuartileGroups(keys)
	var out [4]Fig7cBucket
	labels := [4]string{"Q1 (least)", "Q2", "Q3", "Q4 (most)"}
	for g := 0; g < 4; g++ {
		var diff, red []float64
		for _, idx := range groups[g] {
			diff = append(diff, keys[idx])
			red = append(red, msOf(sms[idx].PLTReduction()))
		}
		out[g] = Fig7cBucket{
			Label:          labels[g],
			Sites:          len(groups[g]),
			MeanDifference: analysis.Mean(diff),
			PLTReductionMs: analysis.Mean(red),
		}
	}
	return out
}

// --- Figure 8 (consecutive visits) ---

// Fig8Point is one provider-count bucket of the consecutive-visit run.
type Fig8Point struct {
	Providers      int
	Sites          int
	PLTReductionMs float64
	ResumedConns   float64 // mean per page, H3 mode
}

// ComputeFigure8 groups sites of a consecutive-mode dataset by the number
// of CDN providers they use.
func ComputeFigure8(ds *Dataset) []Fig8Point {
	sms := ComputeSiteMetrics(ds)
	byK := make(map[int][]int)
	for i := range sms {
		byK[len(sms[i].Providers)] = append(byK[len(sms[i].Providers)], i)
	}
	out := make([]Fig8Point, 0, len(byK))
	for _, k := range sortedKeys(byK) {
		var red, res []float64
		for _, idx := range byK[k] {
			red = append(red, msOf(sms[idx].PLTReduction()))
			res = append(res, sms[idx].ByMode[browser.ModeH3].ResumedConns)
		}
		out = append(out, Fig8Point{
			Providers:      k,
			Sites:          len(byK[k]),
			PLTReductionMs: analysis.Mean(red),
			ResumedConns:   analysis.Mean(res),
		})
	}
	return out
}

// --- Table III (consecutive visits, k-means case study) ---

// Table3Group is one sharing cluster's aggregates.
type Table3Group struct {
	Sites          int
	AvgProviders   float64
	AvgResumed     float64
	PLTReductionMs float64
}

// Table3 is the high/low sharing comparison.
type Table3 struct {
	High Table3Group // C_H
	Low  Table3Group // C_L
	// Domains is the feature-vector dimensionality (paper: 58).
	Domains int
}

// ComputeTable3 follows §VI-D: binary vectors over CDN domains shared by
// at least two pages, k-means with k=2, groups compared by sharing level.
func ComputeTable3(ds *Dataset) (Table3, error) {
	sms := ComputeSiteMetrics(ds)

	// Collect CDN hostnames per site from the H3-mode log.
	siteHosts := make(map[string]map[string]bool)
	hostSites := make(map[string]map[string]bool)
	firstH3Pages(ds, func(p *har.PageLog) {
		for j := range p.Entries {
			e := &p.Entries[j]
			if !locedge.Classify(e.Header).IsCDN {
				continue
			}
			if siteHosts[p.Site] == nil {
				siteHosts[p.Site] = make(map[string]bool)
			}
			siteHosts[p.Site][e.Host] = true
			if hostSites[e.Host] == nil {
				hostSites[e.Host] = make(map[string]bool)
			}
			hostSites[e.Host][p.Site] = true
		}
	})

	// Features: domains used by at least two sites.
	var features []string
	for host, sites := range hostSites {
		if len(sites) >= 2 {
			features = append(features, host)
		}
	}
	sort.Strings(features)
	if len(features) == 0 {
		return Table3{}, fmt.Errorf("core: Table3: no shared CDN domains")
	}

	// Vectors for sites that use at least one shared domain.
	var vectors [][]float64
	var vecSites []*SiteMetrics
	for i := range sms {
		hosts := siteHosts[sms[i].Site]
		if len(hosts) == 0 {
			continue
		}
		vec := make([]float64, len(features))
		any := false
		for f, host := range features {
			if hosts[host] {
				vec[f] = 1
				any = true
			}
		}
		if !any {
			continue // outlier page: no shared domains
		}
		vectors = append(vectors, vec)
		vecSites = append(vecSites, &sms[i])
	}
	if len(vectors) < 2 {
		return Table3{}, fmt.Errorf("core: Table3: only %d clusterable sites", len(vectors))
	}

	assign, err := analysis.KMeans(vectors, 2, 100)
	if err != nil {
		return Table3{}, fmt.Errorf("core: Table3: %w", err)
	}

	group := func(cluster int) Table3Group {
		var provs, resumed, red []float64
		n := 0
		for i, c := range assign {
			if c != cluster {
				continue
			}
			n++
			provs = append(provs, float64(len(vecSites[i].Providers)))
			resumed = append(resumed, vecSites[i].ByMode[browser.ModeH3].ResumedConns)
			red = append(red, msOf(vecSites[i].PLTReduction()))
		}
		return Table3Group{
			Sites:        n,
			AvgProviders: analysis.Mean(provs),
			AvgResumed:   analysis.Mean(resumed),
			// Median: robust to the heavy-tailed loss stalls that
			// dominate cluster means at sub-paper sample sizes.
			PLTReductionMs: analysis.Median(red),
		}
	}
	g0, g1 := group(0), group(1)
	t := Table3{Domains: len(features)}
	if g0.AvgProviders >= g1.AvgProviders {
		t.High, t.Low = g0, g1
	} else {
		t.High, t.Low = g1, g0
	}
	return t, nil
}

// --- Figure 9 (loss sweep) ---

// Fig9Series is one loss rate's reduction-vs-resources relationship.
type Fig9Series struct {
	LossRate  float64
	Points    []analysis.Point // x = CDN resources on page, y = PLT reduction (ms)
	Slope     float64          // ms per CDN resource (quartile-binned fit)
	Intercept float64
	// MedianReductionMs is the robust per-site level — the primary
	// loss-dimension readout (grows strongly with loss).
	MedianReductionMs float64
}

// ComputeFigure9Series extracts per-site (CDN resources, PLT reduction)
// points from one dataset and fits a line robustly: sites are binned into
// resource-count quartiles and the fit runs over per-bin medians, so
// heavy-tailed loss stalls do not swamp the trend.
func ComputeFigure9Series(ds *Dataset, lossRate float64) (Fig9Series, error) {
	sms := ComputeSiteMetrics(ds)
	s := Fig9Series{LossRate: lossRate}
	for i := range sms {
		s.Points = append(s.Points, analysis.Point{
			X: float64(sms[i].CDNEntries),
			Y: msOf(sms[i].PLTReduction()),
		})
	}
	ys0 := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys0[i] = p.Y
	}
	s.MedianReductionMs = analysis.Median(ys0)
	xs, ys := binnedMedians(s.Points, 4)
	a, b, err := analysis.LinearFit(xs, ys)
	if err != nil {
		return s, fmt.Errorf("core: Figure9: %w", err)
	}
	s.Intercept, s.Slope = a, b
	return s, nil
}

// binnedMedians groups points into equal-count bins by X and returns each
// bin's median X and median Y.
func binnedMedians(points []analysis.Point, bins int) (xs, ys []float64) {
	if len(points) == 0 {
		return nil, nil
	}
	sorted := append([]analysis.Point(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	if bins > len(sorted) {
		bins = len(sorted)
	}
	for b := 0; b < bins; b++ {
		lo := b * len(sorted) / bins
		hi := (b + 1) * len(sorted) / bins
		if hi <= lo {
			continue
		}
		bx := make([]float64, 0, hi-lo)
		by := make([]float64, 0, hi-lo)
		for _, p := range sorted[lo:hi] {
			bx = append(bx, p.X)
			by = append(by, p.Y)
		}
		// bx is already ascending (points are sorted by X), so the
		// sorted view costs one copy, not a re-sort.
		xs = append(xs, analysis.NewSorted(bx).Median())
		ys = append(ys, analysis.NewSorted(by).Median())
	}
	return xs, ys
}

// firstH3Pages calls fn on the H3-mode log's first page of each site, in
// log order. A dataset without an H3-mode log has no such pages.
func firstH3Pages(ds *Dataset, fn func(p *har.PageLog)) {
	log := ds.Logs[browser.ModeH3]
	if log == nil {
		return
	}
	seen := make(map[string]bool)
	for i := range log.Pages {
		p := &log.Pages[i]
		if !seen[p.Site] {
			seen[p.Site] = true
			fn(p)
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
