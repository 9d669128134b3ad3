package core

import (
	"testing"

	"h3cdn/internal/analysis"
	"h3cdn/internal/browser"
	"h3cdn/internal/locedge"
)

// These tests assert the qualitative shapes the paper reports, at fixture
// scale (64 sites × 3 probes). They use robust statistics (medians,
// aggregate counts) because per-site reductions under loss are
// heavy-tailed at this sample size.

func TestShapeTable2(t *testing.T) {
	std, _ := fixtures(t)
	t2 := ComputeTable2(std)
	cdnPct := t2.CDN["All"].Pct
	if cdnPct < 55 || cdnPct > 75 {
		t.Fatalf("CDN share = %.1f%%, paper 67%%", cdnPct)
	}
	h3Pct := t2.All["HTTP/3"].Pct
	if h3Pct < 22 || h3Pct > 45 {
		t.Fatalf("H3 share = %.1f%%, paper 32.6%%", h3Pct)
	}
	// CDN requests dominate H3 traffic (paper: 78.8%).
	cdnOfH3 := float64(t2.CDN["HTTP/3"].Count) / float64(t2.All["HTTP/3"].Count)
	if cdnOfH3 < 0.6 {
		t.Fatalf("CDN share of H3 = %.2f, paper 0.79", cdnOfH3)
	}
	// Others are rare and essentially absent from CDN traffic.
	if t2.CDN["Others"].Count > t2.Total/100 {
		t.Fatalf("CDN 'Others' = %d, paper ~0", t2.CDN["Others"].Count)
	}
	if t2.NonCDN["Others"].Count == 0 {
		t.Fatal("non-CDN 'Others' absent, paper 18.7% of non-CDN")
	}
}

func TestShapeFigure2(t *testing.T) {
	std, _ := fixtures(t)
	rows := ComputeFigure2(std)
	byName := make(map[string]Fig2Row, len(rows))
	for _, r := range rows {
		byName[r.Provider] = r
	}
	g, cf := byName["Google"], byName["Cloudflare"]
	if g.ShareOfH3 < 0.35 {
		t.Fatalf("Google share of H3 = %.2f, paper ~0.50", g.ShareOfH3)
	}
	if cf.ShareOfH3 < 0.25 {
		t.Fatalf("Cloudflare share of H3 = %.2f, paper ~0.45", cf.ShareOfH3)
	}
	if g.ShareOfH3+cf.ShareOfH3 < 0.85 {
		t.Fatalf("Google+Cloudflare H3 share = %.2f, paper ~0.95", g.ShareOfH3+cf.ShareOfH3)
	}
	if g.H3Fraction < 0.85 {
		t.Fatalf("Google H3 fraction = %.2f, paper near-total", g.H3Fraction)
	}
	// Amazon/Akamai mostly on H2.
	if byName["Amazon"].H3Fraction > 0.2 || byName["Akamai"].H3Fraction > 0.2 {
		t.Fatalf("Amazon/Akamai H3 fractions too high: %.2f / %.2f",
			byName["Amazon"].H3Fraction, byName["Akamai"].H3Fraction)
	}
}

func TestShapeFigure3(t *testing.T) {
	std, _ := fixtures(t)
	f := ComputeFigure3(std)
	if f.PagesOverHalfCDN < 0.6 || f.PagesOverHalfCDN > 0.9 {
		t.Fatalf("pages over half CDN = %.2f, paper ~0.75", f.PagesOverHalfCDN)
	}
}

func TestShapeFigure4(t *testing.T) {
	std, _ := fixtures(t)
	f := ComputeFigure4(std)
	if f.AtLeastTwo < 0.85 {
		t.Fatalf("pages with >=2 providers = %.2f, paper 0.948", f.AtLeastTwo)
	}
	top := map[string]bool{}
	for i, p := range f.Presence {
		if i < 4 {
			top[p.Provider] = true
			if p.Probability < 0.45 {
				t.Fatalf("top-4 provider %s presence %.2f, paper >0.5", p.Provider, p.Probability)
			}
		}
	}
	if !top["Google"] || !top["Cloudflare"] {
		t.Fatalf("Google/Cloudflare not in top-4 presence: %v", f.Presence)
	}
}

func TestShapeFigure5(t *testing.T) {
	std, _ := fixtures(t)
	for _, s := range ComputeFigure5(std) {
		if len(s.CCDF) == 0 {
			t.Fatalf("%s: empty CCDF", s.Provider)
		}
		if s.Provider == "Cloudflare" && s.FracOver10 < 0.4 {
			t.Fatalf("Cloudflare pages over 10 resources = %.2f, paper ~0.5", s.FracOver10)
		}
	}
}

func TestShapeFigure6a(t *testing.T) {
	std, _ := fixtures(t)
	sms := ComputeSiteMetrics(std)
	red := pltReductions(sms)
	if m := analysis.Median(red); m <= 0 {
		t.Fatalf("median PLT reduction = %.1f ms, paper strictly positive", m)
	}
	groups := ComputeFigure6a(std)
	// The High group must not be the best-performing group (§VI-C).
	best := groups[0].PLTReductionMs
	for _, g := range groups[1:3] {
		if g.PLTReductionMs > best {
			best = g.PLTReductionMs
		}
	}
	if groups[3].PLTReductionMs >= best {
		t.Fatalf("High group reduction %.1f exceeds other groups' max %.1f; paper shows a turning point",
			groups[3].PLTReductionMs, best)
	}
}

func TestShapeFigure6b(t *testing.T) {
	std, _ := fixtures(t)
	f := ComputeFigure6b(std)
	if f.MedianConnectMs <= 0 {
		t.Fatalf("median connection reduction = %.2f ms, paper > 0", f.MedianConnectMs)
	}
	// Wait and receive medians sit near zero (paper: wait slightly
	// below, receive approximately zero).
	if f.MedianWaitMs > 1 || f.MedianWaitMs < -12 {
		t.Fatalf("median wait reduction = %.2f ms, paper slightly negative", f.MedianWaitMs)
	}
	if f.MedianReceiveMs > 5 || f.MedianReceiveMs < -5 {
		t.Fatalf("median receive reduction = %.2f ms, paper ~0", f.MedianReceiveMs)
	}
	if f.MedianConnectMs < f.MedianWaitMs || f.MedianConnectMs < f.MedianReceiveMs {
		t.Fatal("connection reduction does not dominate the other phases")
	}
}

func TestShapeFigure7(t *testing.T) {
	std, _ := fixtures(t)
	ab := ComputeFigure7ab(std)
	for g := 1; g < 4; g++ {
		if ab[g].H2Reused <= ab[g-1].H2Reused {
			t.Fatalf("H2 reuse not increasing across groups: %+v", ab)
		}
	}
	for g := 0; g < 4; g++ {
		if ab[g].Difference <= 0 {
			t.Fatalf("group %s: H2 reuse does not exceed H3 reuse: %+v", ab[g].Name, ab[g])
		}
	}
	if ab[3].Difference <= ab[0].Difference {
		t.Fatalf("reuse difference not largest in High group: %+v", ab)
	}
}

func TestShapeFigure8(t *testing.T) {
	_, cons := fixtures(t)
	points := ComputeFigure8(cons)
	if len(points) < 3 {
		t.Fatalf("only %d provider buckets", len(points))
	}
	// Resumed connections rise with the number of providers used.
	for i := 1; i < len(points); i++ {
		if points[i].ResumedConns < points[i-1].ResumedConns {
			t.Fatalf("resumed connections not increasing: %+v", points)
		}
	}
}

func TestShapeTable3(t *testing.T) {
	_, cons := fixtures(t)
	t3, err := ComputeTable3(cons)
	if err != nil {
		t.Fatal(err)
	}
	if t3.High.AvgProviders <= t3.Low.AvgProviders {
		t.Fatalf("high-sharing cluster has fewer providers: %+v", t3)
	}
	if t3.High.AvgResumed <= t3.Low.AvgResumed {
		t.Fatalf("high-sharing cluster resumes fewer connections: %+v", t3)
	}
	if t3.High.PLTReductionMs <= t3.Low.PLTReductionMs {
		t.Fatalf("high-sharing cluster gains less: high=%.1f low=%.1f (paper: 109.3 vs 54.4)",
			t3.High.PLTReductionMs, t3.Low.PLTReductionMs)
	}
}

func TestShapeConsecutiveStillGains(t *testing.T) {
	// The paper's §VI-D analyses compare sites *within* the
	// consecutive run (Fig. 8, Table III — asserted separately); here
	// we only require that the consecutive protocol preserves a clear
	// overall H3 advantage.
	_, cons := fixtures(t)
	consRed := analysis.Median(pltReductions(ComputeSiteMetrics(cons)))
	if consRed <= 0 {
		t.Fatalf("consecutive median reduction = %.1f ms, want positive", consRed)
	}
}

func TestShapeResumptionOnlyInConsecutive(t *testing.T) {
	std, cons := fixtures(t)
	count := func(ds *Dataset) (n int) {
		for _, p := range ds.Logs[browser.ModeH3].Pages {
			n += p.ResumedConns
		}
		return n
	}
	if s, c := count(std), count(cons); c <= 2*s {
		t.Fatalf("consecutive resumption (%d) not well above standard (%d)", c, s)
	}
}

func TestShapeLocedgeCoversTraffic(t *testing.T) {
	std, _ := fixtures(t)
	classified, total := 0, 0
	for _, e := range entriesOf(std, browser.ModeH2) {
		total++
		if locedge.Classify(e.Header).IsCDN {
			classified++
		}
	}
	if total == 0 || classified == 0 {
		t.Fatal("no traffic classified")
	}
	frac := float64(classified) / float64(total)
	if frac < 0.5 || frac > 0.8 {
		t.Fatalf("CDN classification fraction = %.2f, want ~0.67", frac)
	}
}

// pltReductions extracts per-site PLT reductions in milliseconds.
func pltReductions(sms []SiteMetrics) []float64 {
	out := make([]float64, len(sms))
	for i := range sms {
		out[i] = msOf(sms[i].PLTReduction())
	}
	return out
}
