package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"h3cdn/internal/analysis"
	"h3cdn/internal/har"
	"h3cdn/internal/traffic"
)

// ReportInputs is everything an artifact's Build reads.
type ReportInputs struct {
	// Campaign is the configuration every campaign starts from.
	Campaign CampaignConfig
	// BurstLen is lossprofile's Gilbert–Elliott mean burst length in
	// packets.
	BurstLen float64
	// Profiles are the synthetic trace profiles celltrace replays.
	Profiles []string
	// Pop and PopSizes shape popcache's population sweep; PopSizes as
	// PopCacheSizes returns them.
	Pop      traffic.Config
	PopSizes []int
}

// PlotFile is one file of raw series an artifact exports for plotting:
// a TSV per figure panel, or a table's rendered text.
type PlotFile struct {
	Name    string
	Content string
}

// An Arm is one campaign a row reads and what the row takes from its
// dataset.
type Arm struct {
	Config CampaignConfig
	Take   func(*Dataset) error
}

// Content is what a row reads of a dataset, a set of the bits below.
type Content uint8

const (
	// PageLogs are the per-page HAR logs. A dataset file holds them,
	// and a campaign that retains no page has none.
	PageLogs Content = 1 << iota
	// CampaignOnly is what only a campaign holds: Stats, Metrics,
	// Traffic and Phases, none of which a dataset file serializes.
	CampaignOnly
)

// Render returns a row's text and plot files once every arm of the row
// has taken its dataset.
type Render func() (string, []PlotFile)

// Artifact is one table or figure of the paper, or one of the report's
// extra sweeps.
type Artifact struct {
	ID string
	// InAll marks the artifacts -exp all runs; the others are sweeps
	// too slow to run unless named.
	InAll bool
	// Reads declares what the row takes from its arms' datasets; a row
	// of no arms reads nothing. NewPlan derives from it which arms a
	// dataset file answers and which retentions refuse the row.
	Reads Content
	// Build declares the row under in: the arms it reads, none for a
	// row that reads no dataset, and its Render.
	Build func(in ReportInputs) ([]Arm, Render, error)
}

// Artifacts lists every artifact h3cdn-report regenerates, in -exp all
// order.
var Artifacts = []Artifact{
	{ID: "t1", InAll: true, Build: func(ReportInputs) ([]Arm, Render, error) {
		return nil, func() (string, []PlotFile) { return RenderTable1(Table1()), nil }, nil
	}},
	fromDataset("t2", false, func(ds *Dataset) (string, []PlotFile, error) {
		text := RenderTable2(ComputeTable2(ds))
		return text, []PlotFile{{"table2.txt", text}}, nil
	}),
	fromDataset("f2", false, func(ds *Dataset) (string, []PlotFile, error) {
		rows := ComputeFigure2(ds)
		plot := tsv("provider\trequest_share\th3_fraction\tshare_of_h3", rows, func(r Fig2Row) string {
			return fmt.Sprintf("%s\t%.4f\t%.4f\t%.4f", r.Provider, r.RequestShare, r.H3Fraction, r.ShareOfH3)
		})
		return RenderFigure2(rows), []PlotFile{{"fig2.tsv", plot}}, nil
	}),
	fromDataset("f3", false, func(ds *Dataset) (string, []PlotFile, error) {
		f := ComputeFigure3(ds)
		return RenderFigure3(f), []PlotFile{{"fig3_ccdf.tsv", curveTSV("cdn_pct", f.CCDF)}}, nil
	}),
	fromDataset("f4", false, func(ds *Dataset) (string, []PlotFile, error) {
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
	fromDataset("f5", false, func(ds *Dataset) (string, []PlotFile, error) {
		series := ComputeFigure5(ds)
		var plots []PlotFile
		for _, s := range series {
			plots = append(plots, PlotFile{"fig5_" + strings.ToLower(s.Provider) + ".tsv", curveTSV("resources", s.CCDF)})
		}
		return RenderFigure5(series), plots, nil
	}),
	fromDataset("f6a", false, func(ds *Dataset) (string, []PlotFile, error) {
		groups := ComputeFigure6a(ds)
		plot := tsv("group\tsites\tmean_h3_cdn\tplt_reduction_ms", groups[:], func(g Fig6aGroup) string {
			return fmt.Sprintf("%s\t%d\t%.2f\t%.2f", g.Name, g.Sites, g.MeanH3CDN, g.PLTReductionMs)
		})
		return RenderFigure6a(groups), []PlotFile{{"fig6a.tsv", plot}}, nil
	}),
	fromDataset("f6b", false, func(ds *Dataset) (string, []PlotFile, error) {
		f := ComputeFigure6b(ds)
		return RenderFigure6b(f), []PlotFile{
			{"fig6b_connect.tsv", curveTSV("reduction_ms", f.ConnectCDF)},
			{"fig6b_wait.tsv", curveTSV("reduction_ms", f.WaitCDF)},
			{"fig6b_receive.tsv", curveTSV("reduction_ms", f.ReceiveCDF)},
		}, nil
	}),
	fromDataset("f7", false, func(ds *Dataset) (string, []PlotFile, error) {
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
	fromDataset("f8", true, func(ds *Dataset) (string, []PlotFile, error) {
		points := ComputeFigure8(ds)
		plot := tsv("providers\tsites\tplt_reduction_ms\tresumed_conns", points, func(p Fig8Point) string {
			return fmt.Sprintf("%d\t%d\t%.2f\t%.2f", p.Providers, p.Sites, p.PLTReductionMs, p.ResumedConns)
		})
		return RenderFigure8(points), []PlotFile{{"fig8.tsv", plot}}, nil
	}),
	fromDataset("t3", true, func(ds *Dataset) (string, []PlotFile, error) {
		t, err := ComputeTable3(ds)
		if err != nil {
			return "", nil, err
		}
		text := RenderTable3(t)
		return text, []PlotFile{{"table3.txt", text}}, nil
	}),
	{ID: "f9", InAll: true, Reads: PageLogs, Build: func(in ReportInputs) ([]Arm, Render, error) {
		arms, series := figure9Arms(in.Campaign)
		return arms, func() (string, []PlotFile) {
			var plots []PlotFile
			for _, s := range series {
				name := "fig9_loss" + strconv.FormatFloat(100*s.LossRate, 'f', 1, 64) + ".tsv"
				header := fmt.Sprintf("# slope=%.4f intercept=%.2f median_reduction_ms=%.2f\ncdn_resources\tplt_reduction_ms",
					s.Slope, s.Intercept, s.MedianReductionMs)
				plots = append(plots, PlotFile{name, tsv(header, s.Points, func(p analysis.Point) string {
					return fmt.Sprintf("%.0f\t%.2f", p.X, p.Y)
				})})
			}
			return RenderFigure9(series), plots
		}, nil
	}},
	{ID: "phases", Reads: CampaignOnly, Build: func(in ReportInputs) ([]Arm, Render, error) {
		cfg := in.Campaign
		cfg.TracePhases = true
		return oneArm(cfg, func(d *Dataset) (string, []PlotFile, error) {
			rows, err := ComputePhaseReport(d)
			return RenderPhaseReport(rows), nil, err
		})
	}},
	{ID: "lossprofile", Reads: PageLogs | CampaignOnly, Build: sweep(lossProfileArms, RenderLossProfile)},
	{ID: "celltrace", Reads: PageLogs | CampaignOnly, Build: sweep(cellTraceArms, RenderCellTrace)},
	{ID: "popcache", Reads: CampaignOnly, Build: sweep(popCacheArms, RenderPopCache)},
}

// fromDataset makes an -exp all row that analyses the standard or the
// consecutive protocol's dataset.
func fromDataset(id string, consecutive bool, analyse func(*Dataset) (string, []PlotFile, error)) Artifact {
	return Artifact{ID: id, InAll: true, Reads: PageLogs, Build: func(in ReportInputs) ([]Arm, Render, error) {
		cfg := in.Campaign
		cfg.Consecutive = consecutive
		return oneArm(cfg, analyse)
	}}
}

// oneArm declares a row that analyses the dataset of cfg.
func oneArm(cfg CampaignConfig, analyse func(*Dataset) (string, []PlotFile, error)) ([]Arm, Render, error) {
	var text string
	var plots []PlotFile
	take := func(d *Dataset) (err error) {
		text, plots, err = analyse(d)
		return err
	}
	return []Arm{{cfg, take}}, func() (string, []PlotFile) { return text, plots }, nil
}

// sweep makes the Build of a row whose arms fill the rows it renders;
// it exports no plot files.
func sweep[T any](arms func(ReportInputs) ([]Arm, []T, error), render func([]T) string) func(ReportInputs) ([]Arm, Render, error) {
	return func(in ReportInputs) ([]Arm, Render, error) {
		a, rows, err := arms(in)
		return a, func() (string, []PlotFile) { return render(rows), nil }, err
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

// A Plan runs report rows. It makes every distinct dataset the rows'
// arms read once, a campaign's or a dataset file's, hands it to each
// arm that reads it and drops it, so one dataset is live at a time. Each
// row renders, in row order, as soon as its arms have their datasets.
type Plan struct {
	rows    []Artifact
	renders []Render
	last    []int      // per row, the last read its arms take; -1 for none
	reads   []planRead // distinct, in first-read order
	runs    int        // the reads no dataset file answers
}

// planRead is one dataset a Plan makes, a campaign's or the dataset
// file's when file is set, and the arms that take it.
type planRead struct {
	cfg   CampaignConfig
	file  string
	takes []planTake
}

type planTake struct {
	id   string // the row's
	take func(*Dataset) error
}

// NewPlan plans rows under in, checking every config before any
// campaign runs. A row that reads PageLogs is refused on an arm that
// retains no page. files[consecutive], when set, names the dataset file
// that answers each arm of a row reading PageLogs alone whose config is
// in.Campaign under that protocol. Two configs equal after defaulting
// (pointer fields compared by the values they point to) share one
// dataset.
func NewPlan(rows []Artifact, in ReportInputs, files map[bool]string) (*Plan, error) {
	p := &Plan{rows: rows}
	for _, a := range rows {
		arms, render, err := a.Build(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.ID, err)
		}
		last := -1
		for _, arm := range arms {
			r := planRead{cfg: arm.Config.withDefaults()}
			if err := r.cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%s: %w", a.ID, err)
			}
			if a.Reads&PageLogs != 0 && r.cfg.Retention.Kind == har.RetainNone {
				return nil, fmt.Errorf("%s: reads per-page logs, which HAR retention none does not keep", a.ID)
			}
			base := in.Campaign
			base.Consecutive = r.cfg.Consecutive
			if a.Reads == PageLogs && reflect.DeepEqual(r.cfg, base.withDefaults()) {
				r.file = files[r.cfg.Consecutive]
			}
			j := slices.IndexFunc(p.reads, func(q planRead) bool { return q.file == r.file && reflect.DeepEqual(q.cfg, r.cfg) })
			if j < 0 {
				j = len(p.reads)
				p.reads = append(p.reads, r)
				if r.file == "" {
					p.runs++
				}
			}
			p.reads[j].takes = append(p.reads[j].takes, planTake{a.ID, arm.Take})
			last = max(last, j)
		}
		p.renders, p.last = append(p.renders, render), append(p.last, last)
	}
	return p, nil
}

// Run passes each row's text and plot files to emit, in row order,
// making the datasets in read order as the rows need them. logf reports
// the plan, then each campaign and dataset file as it is made, for the
// row that reads it first.
func (p *Plan) Run(logf func(format string, args ...any), emit func(text string, plots []PlotFile)) error {
	logf("%d campaigns for %d rows", p.runs, len(p.rows))
	made, ran := 0, 0
	for i, a := range p.rows {
		for ; made <= p.last[i]; made++ {
			r := p.reads[made]
			var d *Dataset
			var err error
			if r.file != "" {
				logf("reading %s for %s", r.file, a.ID)
				var b []byte
				if b, err = os.ReadFile(r.file); err == nil {
					d, err = LoadDataset(bytes.NewReader(b))
				}
				if err == nil {
					if err = d.answers(r.cfg); err != nil {
						err = fmt.Errorf("%s: %w", r.file, err)
					}
				}
			} else {
				ran++
				logf("running campaign %d/%d for %s (%d pages, %d probes/vantage)...",
					ran, p.runs, a.ID, r.cfg.CorpusConfig.NumPages, r.cfg.ProbesPerVantage)
				d, err = RunCampaign(r.cfg)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", a.ID, err)
			}
			for _, t := range r.takes {
				if err := t.take(d); err != nil {
					return fmt.Errorf("%s: %w", t.id, err)
				}
			}
		}
		emit(p.renders[i]())
	}
	return nil
}

// answers reports why a loaded dataset cannot stand for a campaign under
// cfg (defaulted), or nil. It checks what the file records: the seed,
// the protocol, the corpus size (when cfg sets one) and, under
// RetainAll, that each mode's log is the census — the corpus's pages in
// order, once per vantage and probe. The path and loss flags are not
// recorded, so matching those is the caller's job.
func (d *Dataset) answers(cfg CampaignConfig) error {
	pages := cfg.CorpusConfig.NumPages
	if cfg.Corpus != nil {
		pages = len(cfg.Corpus.Pages)
	}
	switch {
	case d.Seed != cfg.Seed:
		return fmt.Errorf("seed %d, this run's %d", d.Seed, cfg.Seed)
	case d.Consecutive != cfg.Consecutive:
		return fmt.Errorf("consecutive %v, this run's %v", d.Consecutive, cfg.Consecutive)
	case pages != 0 && len(d.Corpus.Pages) != pages:
		return fmt.Errorf("%d corpus pages, this run's %d", len(d.Corpus.Pages), pages)
	case cfg.Retention.Kind != har.RetainAll:
		return nil
	}
	for _, mode := range cfg.Modes {
		var logged []har.PageLog
		if log := d.Logs[mode]; log != nil {
			logged = log.Pages
		}
		i := 0
		for _, point := range cfg.Vantages {
			for p := 0; p < cfg.probesAt(point); p++ {
				probe := point.Name + "/" + strconv.Itoa(p)
				for _, page := range d.Corpus.Pages {
					if i >= len(logged) || logged[i].Site != page.Site || logged[i].Probe != probe {
						return fmt.Errorf("%s log is not this run's census (%d pages at each of its probes): visit %d", mode, len(d.Corpus.Pages), i)
					}
					i++
				}
			}
		}
		if i != len(logged) {
			return fmt.Errorf("%s log holds %d visits, this run's census %d", mode, len(logged), i)
		}
	}
	return nil
}
