package core

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"h3cdn/internal/analysis"
)

// Render helpers produce the plain-text tables/series the report tool and
// benchmarks print — one renderer per paper artifact.

func newTable(sb *strings.Builder) *tabwriter.Writer {
	return tabwriter.NewWriter(sb, 2, 4, 2, ' ', 0)
}

// RenderTable1 prints Table I.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table I: H3 release year per CDN provider\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Provider\tRelease\tPerformance report")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%s\n", r.Provider, r.ReleaseYear, r.Report)
	}
	_ = w.Flush()
	return sb.String()
}

// RenderTable2 prints the request census.
func RenderTable2(t Table2) string {
	var sb strings.Builder
	sb.WriteString("Table II: requests by HTTP version (H3-enabled browsing)\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Protocol\tCDN #\tCDN %\tNon-CDN #\tNon-CDN %\tAll #\tAll %")
	for _, row := range []string{"HTTP/2", "HTTP/3", "Others", "All"} {
		c, nc, all := t.CDN[row], t.NonCDN[row], t.All[row]
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%d\t%.1f\t%d\t%.1f\n",
			row, c.Count, c.Pct, nc.Count, nc.Pct, all.Count, all.Pct)
	}
	_ = w.Flush()
	fmt.Fprintf(&sb, "total requests: %d\n", t.Total)
	return sb.String()
}

// RenderFigure2 prints provider adoption and market share.
func RenderFigure2(rows []Fig2Row) string {
	var sb strings.Builder
	sb.WriteString("Figure 2: H3 adoption by CDN provider\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Provider\treqs\tshare%\tH3-of-own%\tshare-of-H3%")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\n",
			r.Provider, r.Requests, 100*r.RequestShare, 100*r.H3Fraction, 100*r.ShareOfH3)
	}
	_ = w.Flush()
	return sb.String()
}

// RenderFigure3 prints the CDN-share CCDF at decile probes.
func RenderFigure3(f Fig3) string {
	var sb strings.Builder
	sb.WriteString("Figure 3: CCDF of CDN resource percentage per page\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "x (% CDN)\tP(share > x)")
	for _, x := range []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90} {
		fmt.Fprintf(w, "%.0f\t%.3f\n", x, analysis.InterpolateY(f.CCDF, x))
	}
	_ = w.Flush()
	fmt.Fprintf(&sb, "pages with >50%% CDN resources: %.1f%% (paper: ~75%%)\n", 100*f.PagesOverHalfCDN)
	return sb.String()
}

// RenderFigure4 prints both panels.
func RenderFigure4(f Fig4) string {
	var sb strings.Builder
	sb.WriteString("Figure 4(a): probability of providers appearing on pages\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Provider\tP(appears)")
	for _, p := range f.Presence {
		fmt.Fprintf(w, "%s\t%.3f\n", p.Provider, p.Probability)
	}
	_ = w.Flush()
	sb.WriteString("Figure 4(b): pages by number of providers used\n")
	w = newTable(&sb)
	fmt.Fprintln(w, "#providers\tpages")
	for _, k := range sortedKeys(f.PagesWithK) {
		fmt.Fprintf(w, "%d\t%d\n", k, f.PagesWithK[k])
	}
	_ = w.Flush()
	fmt.Fprintf(&sb, "pages using >=2 providers: %.1f%% (paper: 94.8%%)\n", 100*f.AtLeastTwo)
	return sb.String()
}

// RenderFigure5 prints the per-provider resource-count CCDFs.
func RenderFigure5(series []Fig5Series) string {
	var sb strings.Builder
	sb.WriteString("Figure 5: CCDF of per-page CDN resources by provider\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Provider\tmedian\tP(>10)\tP(>20)\tP(>50)")
	for _, s := range series {
		fmt.Fprintf(w, "%s\t%.0f\t%.2f\t%.2f\t%.2f\n",
			s.Provider, s.MedianCount, analysis.InterpolateY(s.CCDF, 10), analysis.InterpolateY(s.CCDF, 20), analysis.InterpolateY(s.CCDF, 50))
	}
	_ = w.Flush()
	return sb.String()
}

// RenderFigure6a prints PLT reduction per quartile group.
func RenderFigure6a(groups [4]Fig6aGroup) string {
	var sb strings.Builder
	sb.WriteString("Figure 6(a): PLT reduction by H3-enabled CDN resource group\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Group\tsites\tmean H3-CDN\tPLT reduction (ms)")
	for _, g := range groups {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\n", g.Name, g.Sites, g.MeanH3CDN, g.PLTReductionMs)
	}
	_ = w.Flush()
	return sb.String()
}

// RenderFigure6b prints phase reduction medians and CDF probes.
func RenderFigure6b(f Fig6b) string {
	var sb strings.Builder
	sb.WriteString("Figure 6(b): CDF of phase reductions (per-site, ms)\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Phase\tmedian\tP(reduction<=0)")
	fmt.Fprintf(w, "connection\t%.2f\t%.2f\n", f.MedianConnectMs, analysis.InterpolateY(f.ConnectCDF, 0))
	fmt.Fprintf(w, "wait\t%.2f\t%.2f\n", f.MedianWaitMs, analysis.InterpolateY(f.WaitCDF, 0))
	fmt.Fprintf(w, "receive\t%.2f\t%.2f\n", f.MedianReceiveMs, analysis.InterpolateY(f.ReceiveCDF, 0))
	_ = w.Flush()
	sb.WriteString("paper: median connection > 0, wait < 0, receive ~ 0\n")
	return sb.String()
}

// RenderFigure7 prints panels a, b and c.
func RenderFigure7(ab [4]Fig7Group, c [4]Fig7cBucket) string {
	var sb strings.Builder
	sb.WriteString("Figure 7(a,b): reused connections per group\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Group\tH2 reused\tH3 reused\tdifference")
	for _, g := range ab {
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\n", g.Name, g.H2Reused, g.H3Reused, g.Difference)
	}
	_ = w.Flush()
	sb.WriteString("Figure 7(c): PLT reduction vs reuse difference\n")
	w = newTable(&sb)
	fmt.Fprintln(w, "Bucket\tsites\tmean diff\tPLT reduction (ms)")
	for _, b := range c {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\n", b.Label, b.Sites, b.MeanDifference, b.PLTReductionMs)
	}
	_ = w.Flush()
	return sb.String()
}

// RenderFigure8 prints the consecutive-visit provider buckets.
func RenderFigure8(points []Fig8Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: consecutive visits, by providers used per page\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "#providers\tsites\tPLT reduction (ms)\tresumed conns")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\n", p.Providers, p.Sites, p.PLTReductionMs, p.ResumedConns)
	}
	_ = w.Flush()
	return sb.String()
}

// RenderTable3 prints the sharing case study.
func RenderTable3(t Table3) string {
	var sb strings.Builder
	sb.WriteString("Table III: sharing-degree case study (k-means, k=2)\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "Metric\tHigh sharing C_H\tLow sharing C_L")
	fmt.Fprintf(w, "sites\t%d\t%d\n", t.High.Sites, t.Low.Sites)
	fmt.Fprintf(w, "avg providers\t%.2f\t%.2f\n", t.High.AvgProviders, t.Low.AvgProviders)
	fmt.Fprintf(w, "avg resumed conns\t%.2f\t%.2f\n", t.High.AvgResumed, t.Low.AvgResumed)
	fmt.Fprintf(w, "PLT reduction (ms)\t%.1f\t%.1f\n", t.High.PLTReductionMs, t.Low.PLTReductionMs)
	_ = w.Flush()
	fmt.Fprintf(&sb, "shared domains (features): %d (paper: 58)\n", t.Domains)
	return sb.String()
}

// RenderFigure9 prints the loss sweep with fitted slopes.
func RenderFigure9(series []Fig9Series) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: PLT reduction vs CDN resources under loss\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "loss\tsites\tmedian reduction (ms)\tslope (ms/resource)\tintercept (ms)")
	for _, s := range series {
		fmt.Fprintf(w, "%.1f%%\t%d\t%.1f\t%.2f\t%.1f\n",
			100*s.LossRate, len(s.Points), s.MedianReductionMs, s.Slope, s.Intercept)
	}
	_ = w.Flush()
	sb.WriteString("paper slopes: 0.80 (0%), 1.42 (0.5%), 2.15 (1%); reduction rises with loss\n")
	return sb.String()
}
