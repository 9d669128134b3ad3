package core

import (
	"fmt"
	"strconv"
	"strings"

	"h3cdn/internal/analysis"
	"h3cdn/internal/traffic"
)

// Input names what an artifact reads.
type Input int

const (
	FromRegistry     Input = iota // the CDN provider registry only
	FromStandard                  // the standard protocol's dataset
	FromConsecutive               // the consecutive protocol's dataset
	FromOwnCampaigns              // campaigns its Run runs itself
)

// ReportInputs is everything an artifact's Run reads.
type ReportInputs struct {
	// Campaign is the configuration every campaign starts from.
	Campaign CampaignConfig
	// BurstLen is lossprofile's Gilbert–Elliott mean burst length in
	// packets.
	BurstLen float64
	// Profiles are celltrace's synthetic trace profiles (empty = all).
	Profiles []string
	// Pop and PopSizes shape popcache's population sweep; PopSizes as
	// PopCacheSizes returns them.
	Pop      traffic.Config
	PopSizes []int
	// Dataset returns the consecutive protocol's dataset, or the
	// standard one when consecutive is false.
	Dataset func(consecutive bool) (*Dataset, error)
}

// PlotFile is one file of raw series an artifact exports for plotting:
// a TSV per figure panel, or a table's rendered text.
type PlotFile struct {
	Name    string
	Content string
}

// Artifact is one table or figure of the paper, or one of the report's
// extra sweeps.
type Artifact struct {
	ID    string
	Input Input
	// InAll marks the artifacts -exp all runs; the others are sweeps
	// too slow to run unless named.
	InAll bool
	// Note, when set, describes the campaigns Run runs itself.
	Note string
	// Run computes the artifact once and returns its rendered text and
	// its plot files.
	Run func(in ReportInputs) (string, []PlotFile, error)
}

// Artifacts lists every artifact h3cdn-report regenerates, in -exp all
// order.
var Artifacts = []Artifact{
	{ID: "t1", Input: FromRegistry, InAll: true, Run: func(ReportInputs) (string, []PlotFile, error) {
		return RenderTable1(Table1()), nil, nil
	}},
	fromDataset("t2", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		text := RenderTable2(ComputeTable2(ds))
		return text, []PlotFile{{"table2.txt", text}}, nil
	}),
	fromDataset("f2", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		rows := ComputeFigure2(ds)
		plot := tsv("provider\trequest_share\th3_fraction\tshare_of_h3", rows, func(r Fig2Row) string {
			return fmt.Sprintf("%s\t%.4f\t%.4f\t%.4f", r.Provider, r.RequestShare, r.H3Fraction, r.ShareOfH3)
		})
		return RenderFigure2(rows), []PlotFile{{"fig2.tsv", plot}}, nil
	}),
	fromDataset("f3", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		f := ComputeFigure3(ds)
		return RenderFigure3(f), []PlotFile{{"fig3_ccdf.tsv", curveTSV("cdn_pct", f.CCDF)}}, nil
	}),
	fromDataset("f4", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		f := ComputeFigure4(ds)
		return RenderFigure4(f), []PlotFile{
			{"fig4a.tsv", tsv("provider\tpresence", f.Presence, func(p Fig4Presence) string {
				return fmt.Sprintf("%s\t%.4f", p.Provider, p.Probability)
			})},
			{"fig4b.tsv", tsv("providers\tpages", sortedKeys(f.PagesWithK), func(k int) string {
				return fmt.Sprintf("%d\t%d", k, f.PagesWithK[k])
			})},
		}, nil
	}),
	fromDataset("f5", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		series := ComputeFigure5(ds)
		var plots []PlotFile
		for _, s := range series {
			plots = append(plots, PlotFile{"fig5_" + strings.ToLower(s.Provider) + ".tsv", curveTSV("resources", s.CCDF)})
		}
		return RenderFigure5(series), plots, nil
	}),
	fromDataset("f6a", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		groups := ComputeFigure6a(ds)
		plot := tsv("group\tsites\tmean_h3_cdn\tplt_reduction_ms", groups[:], func(g Fig6aGroup) string {
			return fmt.Sprintf("%s\t%d\t%.2f\t%.2f", g.Name, g.Sites, g.MeanH3CDN, g.PLTReductionMs)
		})
		return RenderFigure6a(groups), []PlotFile{{"fig6a.tsv", plot}}, nil
	}),
	fromDataset("f6b", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		f := ComputeFigure6b(ds)
		return RenderFigure6b(f), []PlotFile{
			{"fig6b_connect.tsv", curveTSV("reduction_ms", f.ConnectCDF)},
			{"fig6b_wait.tsv", curveTSV("reduction_ms", f.WaitCDF)},
			{"fig6b_receive.tsv", curveTSV("reduction_ms", f.ReceiveCDF)},
		}, nil
	}),
	fromDataset("f7", FromStandard, func(ds *Dataset) (string, []PlotFile, error) {
		ab, c := ComputeFigure7ab(ds), ComputeFigure7c(ds)
		return RenderFigure7(ab, c), []PlotFile{
			{"fig7ab.tsv", tsv("group\th2_reused\th3_reused\tdifference", ab[:], func(g Fig7Group) string {
				return fmt.Sprintf("%s\t%.2f\t%.2f\t%.2f", g.Name, g.H2Reused, g.H3Reused, g.Difference)
			})},
			{"fig7c.tsv", tsv("bucket\tsites\tmean_difference\tplt_reduction_ms", c[:], func(b Fig7cBucket) string {
				return fmt.Sprintf("%s\t%d\t%.2f\t%.2f", b.Label, b.Sites, b.MeanDifference, b.PLTReductionMs)
			})},
		}, nil
	}),
	fromDataset("f8", FromConsecutive, func(ds *Dataset) (string, []PlotFile, error) {
		points := ComputeFigure8(ds)
		plot := tsv("providers\tsites\tplt_reduction_ms\tresumed_conns", points, func(p Fig8Point) string {
			return fmt.Sprintf("%d\t%d\t%.2f\t%.2f", p.Providers, p.Sites, p.PLTReductionMs, p.ResumedConns)
		})
		return RenderFigure8(points), []PlotFile{{"fig8.tsv", plot}}, nil
	}),
	fromDataset("t3", FromConsecutive, func(ds *Dataset) (string, []PlotFile, error) {
		t, err := ComputeTable3(ds)
		if err != nil {
			return "", nil, err
		}
		text := RenderTable3(t)
		return text, []PlotFile{{"table3.txt", text}}, nil
	}),
	{ID: "f9", Input: FromOwnCampaigns, InAll: true, Note: "Figure 9 loss sweep (3 campaigns)", Run: func(in ReportInputs) (string, []PlotFile, error) {
		series, err := RunFigure9(in.Campaign)
		if err != nil {
			return "", nil, err
		}
		var plots []PlotFile
		for _, s := range series {
			name := "fig9_loss" + strconv.FormatFloat(100*s.LossRate, 'f', 1, 64) + ".tsv"
			header := fmt.Sprintf("# slope=%.4f intercept=%.2f median_reduction_ms=%.2f\ncdn_resources\tplt_reduction_ms",
				s.Slope, s.Intercept, s.MedianReductionMs)
			plots = append(plots, PlotFile{name, tsv(header, s.Points, func(p analysis.Point) string {
				return fmt.Sprintf("%.0f\t%.2f", p.X, p.Y)
			})})
		}
		return RenderFigure9(series), plots, nil
	}},
	// Phase attributions are folded from live event traces and never
	// serialized, so no dataset file can supply them: phases always
	// runs its own traced campaign.
	{ID: "phases", Input: FromOwnCampaigns, Note: "traced standard campaign", Run: func(in ReportInputs) (string, []PlotFile, error) {
		cfg := in.Campaign
		cfg.TracePhases = true
		ds, err := RunCampaign(cfg)
		if err != nil {
			return "", nil, err
		}
		return rendered(RenderPhaseReport)(ComputePhaseReport(ds))
	}},
	{ID: "lossprofile", Input: FromOwnCampaigns, Note: "loss-profile sweep (i.i.d. vs bursty loss, 2 campaigns per rate)", Run: func(in ReportInputs) (string, []PlotFile, error) {
		return rendered(RenderLossProfile)(RunLossProfile(in.Campaign, in.BurstLen))
	}},
	{ID: "celltrace", Input: FromOwnCampaigns, Note: "cellular-trace replay (2 campaigns per profile, modes H1/H2/H3)", Run: func(in ReportInputs) (string, []PlotFile, error) {
		return rendered(RenderCellTrace)(RunCellTrace(in.Campaign, in.Profiles))
	}},
	{ID: "popcache", Input: FromOwnCampaigns, Note: "population cache-contention sweep (one traffic campaign per size and mode)", Run: func(in ReportInputs) (string, []PlotFile, error) {
		return rendered(RenderPopCache)(RunPopCache(in.Campaign, in.Pop, in.PopSizes))
	}},
}

// fromDataset makes an -exp all row that analyses the dataset input
// names.
func fromDataset(id string, input Input, analyse func(*Dataset) (string, []PlotFile, error)) Artifact {
	return Artifact{ID: id, Input: input, InAll: true, Run: func(in ReportInputs) (string, []PlotFile, error) {
		ds, err := in.Dataset(input == FromConsecutive)
		if err != nil {
			return "", nil, err
		}
		return analyse(ds)
	}}
}

// rendered adapts a renderer into a Run result for a computation that
// exports no plot files.
func rendered[T any](render func(T) string) func(T, error) (string, []PlotFile, error) {
	return func(v T, err error) (string, []PlotFile, error) {
		if err != nil {
			return "", nil, err
		}
		return render(v), nil, nil
	}
}

// tsv renders a header and one line per row.
func tsv[T any](header string, rows []T, line func(T) string) string {
	var sb strings.Builder
	sb.WriteString(header + "\n")
	for _, r := range rows {
		sb.WriteString(line(r) + "\n")
	}
	return sb.String()
}

func curveTSV(xName string, curve []analysis.Point) string {
	return tsv(xName+"\ty", curve, func(p analysis.Point) string {
		return fmt.Sprintf("%.4f\t%.6f", p.X, p.Y)
	})
}
