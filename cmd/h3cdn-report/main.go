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
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type reporter struct {
	cfg      core.CampaignConfig
	burstLen float64
	profiles []string
	popTc    traffic.Config
	popSizes []int

	// paths and loaded hold each protocol's dataset, keyed by whether
	// it is the consecutive one: a -dataset / -consecutive-dataset
	// path ("" runs a campaign) and the dataset once loaded or run.
	paths  map[bool]string
	loaded map[bool]*core.Dataset
	traced *core.Dataset
	fig9   []core.Fig9Series
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-report", flag.ContinueOnError)
	r := &reporter{
		cfg:    core.CampaignConfig{Vantages: vantage.Points()},
		loaded: map[bool]*core.Dataset{},
	}
	r.cfg.BindFlags(fs)
	fs.IntVar(&r.popTc.Users, "pop-users", 64, "popcache: baseline population size anchoring the per-user offered load")
	fs.Float64Var(&r.popTc.ArrivalRate, "pop-rate", 2, "popcache: session-arrival rate at the baseline population, sessions/s of virtual time")
	fs.DurationVar(&r.popTc.Duration, "pop-duration", time.Minute, "popcache: virtual-time horizon per campaign")
	fs.DurationVar(&r.popTc.EpochInterval, "pop-epoch", 10*time.Second, "popcache: epoch interval for the hit-rate warming trajectory")
	fs.DurationVar(&r.popTc.CacheTTL, "pop-ttl", 0, "popcache: edge-cache entry TTL (0 = default 60s)")
	fs.Func("pop-sizes", "popcache: comma-separated population `sizes` to sweep (empty = ¼×, 1×, 4× of -pop-users)", func(s string) (err error) {
		r.popSizes, err = parseSizes(s)
		return err
	})
	fs.Float64Var(&r.burstLen, "burstlen", 4, "lossprofile: Gilbert–Elliott mean burst length in packets")
	var (
		exp      = fs.String("exp", "all", "experiment id (t1,t2,t3,f2,f3,f4,f5,f6a,f6b,f7,f8,f9,phases,lossprofile,celltrace,popcache,all)")
		profiles = fs.String("traces", "", "celltrace: comma-separated synthetic profiles (empty = all; see h3cdn-measure -link-trace)")
		dsPath   = fs.String("dataset", "", "standard-protocol dataset JSON (from h3cdn-measure)")
		consPath = fs.String("consecutive-dataset", "", "consecutive-protocol dataset JSON")
		plotDir  = fs.String("plot", "", "also export raw figure series as TSV into this directory")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	r.profiles = splitList(*profiles)
	r.paths = map[bool]string{false: *dsPath, true: *consPath}

	// Usage errors exit 2, before any campaign runs.
	if !(r.burstLen >= 1) || math.IsInf(r.burstLen, 1) {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -burstlen %v: must be a finite burst length of at least 1 packet\n", r.burstLen)
		return 2
	}
	if err := r.cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
		return 2
	}
	sizes, err := core.PopCacheSizes(r.popTc, r.popSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -pop-*: %v\n", err)
		return 2
	}
	r.popSizes = sizes

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
		if err := core.WritePlotData(*plotDir, r.loaded[false], r.loaded[true], r.fig9); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "h3cdn-report: plot data written to %s\n", *plotDir)
	}
	return 0
}

// dataset returns the standard or the consecutive protocol's dataset:
// loaded from its -dataset / -consecutive-dataset file when one is set,
// else from a campaign this command runs.
func (r *reporter) dataset(consecutive bool) (*core.Dataset, error) {
	if ds := r.loaded[consecutive]; ds != nil {
		return ds, nil
	}
	var ds *core.Dataset
	if path := r.paths[consecutive]; path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if ds, err = core.LoadDataset(f); err != nil {
			return nil, err
		}
	} else {
		cfg := r.cfg
		cfg.Consecutive = consecutive
		kind := "standard"
		if consecutive {
			kind = "consecutive"
		}
		var err error
		if ds, err = runCampaign(kind, cfg); err != nil {
			return nil, err
		}
	}
	r.loaded[consecutive] = ds
	return ds, nil
}

// tracedStandard returns a standard-protocol dataset carrying phase
// attributions. Phases are folded from live event traces and never
// serialized, so a -dataset file cannot supply them: this always runs a
// campaign (with tracing on), even when -dataset is set.
func (r *reporter) tracedStandard() (*core.Dataset, error) {
	if r.traced == nil {
		cfg := r.cfg
		cfg.TracePhases = true
		ds, err := runCampaign("traced standard", cfg)
		if err != nil {
			return nil, err
		}
		r.traced = ds
	}
	return r.traced, nil
}

// runCampaign runs one campaign, logging its start and duration.
func runCampaign(kind string, cfg core.CampaignConfig) (*core.Dataset, error) {
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

// datasetExps are the experiments that analyse one protocol's dataset,
// keyed by id: consecutive picks the consecutive protocol's dataset
// over the standard one, and render computes and renders the result.
var datasetExps = map[string]struct {
	consecutive bool
	render      func(*core.Dataset) (string, error)
}{
	"t2":  {false, func(ds *core.Dataset) (string, error) { return core.RenderTable2(core.ComputeTable2(ds)), nil }},
	"f2":  {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure2(core.ComputeFigure2(ds)), nil }},
	"f3":  {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure3(core.ComputeFigure3(ds)), nil }},
	"f4":  {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure4(core.ComputeFigure4(ds)), nil }},
	"f5":  {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure5(core.ComputeFigure5(ds)), nil }},
	"f6a": {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure6a(core.ComputeFigure6a(ds)), nil }},
	"f6b": {false, func(ds *core.Dataset) (string, error) { return core.RenderFigure6b(core.ComputeFigure6b(ds)), nil }},
	"f7": {false, func(ds *core.Dataset) (string, error) {
		return core.RenderFigure7(core.ComputeFigure7ab(ds), core.ComputeFigure7c(ds)), nil
	}},
	"f8": {true, func(ds *core.Dataset) (string, error) { return core.RenderFigure8(core.ComputeFigure8(ds)), nil }},
	"t3": {true, func(ds *core.Dataset) (string, error) {
		t3, err := core.ComputeTable3(ds)
		if err != nil {
			return "", err
		}
		return core.RenderTable3(t3), nil
	}},
}

func (r *reporter) report(id string) error {
	if e, ok := datasetExps[id]; ok {
		ds, err := r.dataset(e.consecutive)
		if err != nil {
			return err
		}
		out, err := e.render(ds)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	switch id {
	case "t1":
		fmt.Println(core.RenderTable1(core.Table1()))
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

// parseSizes parses the comma-separated -pop-sizes population list;
// core.PopCacheSizes judges the sizes.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("population size %q: want an integer", f)
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
