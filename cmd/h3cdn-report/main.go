// Command h3cdn-report regenerates the paper's tables and figures.
//
// Usage:
//
//	h3cdn-report [-exp all|t1|t2|t3|f2|f3|f4|f5|f6a|f6b|f7|f8|f9|phases|lossprofile|celltrace|popcache] [flags]
//
// Most experiments run their own campaigns at the configured scale;
// alternatively point -dataset / -consecutive-dataset at files written by
// h3cdn-measure to reuse existing measurements. Figure 9 always runs its
// loss-sweep campaigns. The lossprofile experiment re-runs the Figure 9
// sweep twice per rate — i.i.d. vs bursty Gilbert–Elliott loss at the
// matched average — and is excluded from -exp all to bound runtime. The
// phases experiment folds live event traces into per-mode phase
// breakdowns; phase attributions are never serialized, so it always runs
// its own traced campaign and is likewise excluded from -exp all. The
// celltrace experiment replays campaigns over synthetic cellular
// capacity traces (simnet.TraceLink) in modes H1/H2/H3, with and
// without bursty loss — two campaigns per trace profile (-traces
// selects which), also excluded from -exp all. The popcache experiment
// sweeps open-loop user populations (-pop-sizes, per-user offered load
// held fixed) through shared TTL edge caches in modes H1/H2/H3 — one
// traffic campaign per (size, mode), likewise excluded from -exp all.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/har"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type reporter struct {
	cfg      core.CampaignConfig
	dsPath   string
	consPath string
	burstLen float64
	profiles []string
	popTc    traffic.Config
	popSizes []int

	std    *core.Dataset
	cons   *core.Dataset
	traced *core.Dataset
	fig9   []core.Fig9Series
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-report", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id (t1,t2,t3,f2,f3,f4,f5,f6a,f6b,f7,f8,f9,phases,lossprofile,celltrace,popcache,all)")
		seed      = fs.Uint64("seed", 2022, "campaign seed")
		pages     = fs.Int("pages", 325, "number of websites")
		probes    = fs.Int("probes", 1, "probes per vantage point")
		burstLen  = fs.Float64("burstlen", 4, "lossprofile: Gilbert–Elliott mean burst length in packets")
		profiles  = fs.String("traces", "", "celltrace: comma-separated synthetic profiles (empty = all; see h3cdn-measure -link-trace)")
		popSizes  = fs.String("pop-sizes", "", "popcache: comma-separated population sizes to sweep (empty = ¼×, 1×, 4× of -pop-users)")
		popUsers  = fs.Int("pop-users", 64, "popcache: baseline population size anchoring the per-user offered load")
		popRate   = fs.Float64("pop-rate", 2, "popcache: session-arrival rate at the baseline population, sessions/s of virtual time")
		popDur    = fs.Duration("pop-duration", time.Minute, "popcache: virtual-time horizon per campaign")
		popEpoch  = fs.Duration("pop-epoch", 10*time.Second, "popcache: epoch interval for the hit-rate warming trajectory")
		popTTL    = fs.Duration("pop-ttl", 0, "popcache: edge-cache entry TTL (0 = default 60s)")
		dsPath    = fs.String("dataset", "", "standard-protocol dataset JSON (from h3cdn-measure)")
		consPath  = fs.String("consecutive-dataset", "", "consecutive-protocol dataset JSON")
		plotDir   = fs.String("plot", "", "also export raw figure series as TSV into this directory")
		retention = fs.String("har-retention", "all", "HAR retention policy for campaigns this command runs: all, none, or sample:N; with none/sample, experiments needing per-page data fall back to sketch-derived (approximate) statistics")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Usage errors exit 2, before any campaign runs.
	if *pages < 1 {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -pages %d: must be at least 1\n", *pages)
		return 2
	}
	if !(*burstLen >= 1) || math.IsInf(*burstLen, 1) {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -burstlen %v: must be a finite burst length of at least 1 packet\n", *burstLen)
		return 2
	}
	ret, err := har.ParseRetention(*retention)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -har-retention: %v\n", err)
		return 2
	}

	sizes, err := parseSizes(*popSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -pop-sizes: %v\n", err)
		return 2
	}

	r := &reporter{
		burstLen: *burstLen,
		profiles: splitList(*profiles),
		popSizes: sizes,
		popTc: traffic.Config{
			Users:         *popUsers,
			ArrivalRate:   *popRate,
			Duration:      *popDur,
			EpochInterval: *popEpoch,
			CacheTTL:      *popTTL,
		},
		cfg: core.CampaignConfig{
			Seed:             *seed,
			CorpusConfig:     webgen.Config{NumPages: *pages},
			Vantages:         vantage.Points(),
			ProbesPerVantage: *probes,
			Retention:        ret,
		},
		dsPath:   *dsPath,
		consPath: *consPath,
	}
	if err := r.cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
		return 2
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"t1", "t2", "f2", "f3", "f4", "f5", "f6a", "f6b", "f7", "f8", "t3", "f9"}
	}
	for _, id := range ids {
		if err := r.report(strings.TrimSpace(id)); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-report: %s: %v\n", id, err)
			return 1
		}
	}
	if *plotDir != "" {
		if err := core.WritePlotData(*plotDir, r.std, r.cons, r.fig9); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "h3cdn-report: plot data written to %s\n", *plotDir)
	}
	return 0
}

func (r *reporter) standard() (*core.Dataset, error) {
	if r.std != nil {
		return r.std, nil
	}
	if r.dsPath != "" {
		f, err := os.Open(r.dsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r.std, err = core.LoadDataset(f)
		return r.std, err
	}
	var err error
	r.std, err = r.campaign(false)
	return r.std, err
}

func (r *reporter) consecutive() (*core.Dataset, error) {
	if r.cons != nil {
		return r.cons, nil
	}
	if r.consPath != "" {
		f, err := os.Open(r.consPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r.cons, err = core.LoadDataset(f)
		return r.cons, err
	}
	var err error
	r.cons, err = r.campaign(true)
	return r.cons, err
}

// tracedStandard returns a standard-protocol dataset carrying phase
// attributions. Phases are folded from live event traces and never
// serialized, so a -dataset file cannot supply them: this always runs a
// campaign (with tracing on), even when -dataset is set.
func (r *reporter) tracedStandard() (*core.Dataset, error) {
	if r.traced != nil {
		return r.traced, nil
	}
	cfg := r.cfg
	cfg.TracePhases = true
	fmt.Fprintf(os.Stderr, "h3cdn-report: running traced standard campaign (%d pages, %d probes/vantage)...\n",
		cfg.CorpusConfig.NumPages, cfg.ProbesPerVantage)
	start := time.Now()
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "h3cdn-report: traced campaign done in %v\n", time.Since(start).Round(time.Second))
	r.traced = ds
	return ds, nil
}

func (r *reporter) campaign(consecutive bool) (*core.Dataset, error) {
	cfg := r.cfg
	cfg.Consecutive = consecutive
	kind := "standard"
	if consecutive {
		kind = "consecutive"
	}
	fmt.Fprintf(os.Stderr, "h3cdn-report: running %s campaign (%d pages, %d probes/vantage)...\n",
		kind, cfg.CorpusConfig.NumPages, cfg.ProbesPerVantage)
	start := time.Now()
	ds, err := core.RunCampaign(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "h3cdn-report: %s campaign done in %v\n", kind, time.Since(start).Round(time.Second))
	return ds, nil
}

func (r *reporter) report(id string) error {
	switch id {
	case "t1":
		fmt.Println(core.RenderTable1(core.Table1()))
	case "t2":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderTable2(core.ComputeTable2(ds)))
	case "f2":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure2(core.ComputeFigure2(ds)))
	case "f3":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure3(core.ComputeFigure3(ds)))
	case "f4":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure4(core.ComputeFigure4(ds)))
	case "f5":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure5(core.ComputeFigure5(ds)))
	case "f6a":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure6a(core.ComputeFigure6a(ds)))
	case "f6b":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure6b(core.ComputeFigure6b(ds)))
	case "f7":
		ds, err := r.standard()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure7(core.ComputeFigure7ab(ds), core.ComputeFigure7c(ds)))
	case "f8":
		ds, err := r.consecutive()
		if err != nil {
			return err
		}
		fmt.Println(core.RenderFigure8(core.ComputeFigure8(ds)))
	case "t3":
		ds, err := r.consecutive()
		if err != nil {
			return err
		}
		t3, err := core.ComputeTable3(ds)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderTable3(t3))
	case "f9":
		fmt.Fprintln(os.Stderr, "h3cdn-report: running Figure 9 loss sweep (3 campaigns)...")
		series, err := core.RunFigure9(r.cfg)
		if err != nil {
			return err
		}
		r.fig9 = series
		fmt.Println(core.RenderFigure9(series))
	case "phases":
		ds, err := r.tracedStandard()
		if err != nil {
			return err
		}
		rows, err := core.ComputePhaseReport(ds)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderPhaseReport(rows))
	case "lossprofile":
		fmt.Fprintf(os.Stderr, "h3cdn-report: running loss-profile sweep (i.i.d. vs bursty, mean burst %.0f)...\n", r.burstLen)
		rows, err := core.RunLossProfile(r.cfg, r.burstLen)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderLossProfile(rows))
	case "celltrace":
		fmt.Fprintln(os.Stderr, "h3cdn-report: running cellular-trace replay (2 campaigns per profile, modes H1/H2/H3)...")
		rows, err := core.RunCellTrace(r.cfg, r.profiles)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderCellTrace(rows))
	case "popcache":
		fmt.Fprintln(os.Stderr, "h3cdn-report: running population cache-contention sweep (one traffic campaign per size and mode)...")
		rows, err := core.RunPopCache(r.cfg, r.popTc, r.popSizes)
		if err != nil {
			return err
		}
		fmt.Println(core.RenderPopCache(rows))
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// parseSizes parses the comma-separated -pop-sizes population list.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("population size %q: want a positive integer", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// splitList splits a comma-separated flag value, dropping empty fields.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
