// Command h3cdn-report regenerates the paper's tables and figures.
//
// Usage:
//
//	h3cdn-report [-exp all|id[,id...]] [flags]
//
// Each experiment id is one row of core.Artifacts, which says what the
// row reads: the provider registry, the standard or the consecutive
// protocol's dataset, or campaigns the row runs itself. -exp all runs
// the rows marked InAll, in table order; the slower sweeps run only when
// named. Dataset rows share one campaign per protocol at the configured
// scale, or read -dataset / -consecutive-dataset files written by
// h3cdn-measure instead. -plot writes the raw series files of the rows
// that ran.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/vantage"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-report", flag.ContinueOnError)
	in := core.ReportInputs{Campaign: core.CampaignConfig{Vantages: vantage.Points()}}
	in.Campaign.BindFlags(fs)
	fs.IntVar(&in.Pop.Users, "pop-users", 64, "popcache: baseline population size anchoring the per-user offered load")
	fs.Float64Var(&in.Pop.ArrivalRate, "pop-rate", 2, "popcache: session-arrival rate at the baseline population, sessions/s of virtual time")
	fs.DurationVar(&in.Pop.Duration, "pop-duration", time.Minute, "popcache: virtual-time horizon per campaign")
	fs.DurationVar(&in.Pop.EpochInterval, "pop-epoch", 10*time.Second, "popcache: epoch interval for the hit-rate warming trajectory")
	fs.DurationVar(&in.Pop.CacheTTL, "pop-ttl", 0, "popcache: edge-cache entry TTL (0 = default 60s)")
	fs.Func("pop-sizes", "popcache: comma-separated population `sizes` to sweep (empty = ¼×, 1×, 4× of -pop-users)", func(s string) (err error) {
		in.PopSizes, err = parseSizes(s)
		return err
	})
	fs.Float64Var(&in.BurstLen, "burstlen", 4, "lossprofile: Gilbert–Elliott mean burst length in packets")
	ids := make([]string, 0, len(core.Artifacts)+1)
	for _, a := range core.Artifacts {
		ids = append(ids, a.ID)
	}
	var (
		exp      = fs.String("exp", "all", "experiment id ("+strings.Join(append(ids, "all"), ",")+")")
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
	in.Profiles = splitList(*profiles)

	// Usage errors exit 2, before any campaign runs.
	if !(in.BurstLen >= 1) || math.IsInf(in.BurstLen, 1) {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -burstlen %v: must be a finite burst length of at least 1 packet\n", in.BurstLen)
		return 2
	}
	if err := in.Campaign.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
		return 2
	}
	sizes, err := core.PopCacheSizes(in.Pop, in.PopSizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: -pop-*: %v\n", err)
		return 2
	}
	in.PopSizes = sizes

	rows, err := selectArtifacts(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
		return 1
	}
	paths := map[bool]string{false: *dsPath, true: *consPath}
	loaded := map[bool]*core.Dataset{}
	in.Dataset = func(consecutive bool) (*core.Dataset, error) {
		if loaded[consecutive] == nil {
			ds, err := loadDataset(paths[consecutive], in.Campaign, consecutive)
			if err != nil {
				return nil, err
			}
			loaded[consecutive] = ds
		}
		return loaded[consecutive], nil
	}
	var plots []core.PlotFile
	for _, a := range rows {
		if a.Note != "" {
			fmt.Fprintf(os.Stderr, "h3cdn-report: running %s...\n", a.Note)
		}
		text, files, err := a.Run(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-report: %s: %v\n", a.ID, err)
			return 1
		}
		fmt.Println(text)
		plots = append(plots, files...)
	}
	if *plotDir != "" {
		if err := writePlots(*plotDir, plots); err != nil {
			fmt.Fprintf(os.Stderr, "h3cdn-report: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "h3cdn-report: plot data written to %s\n", *plotDir)
	}
	return 0
}

// selectArtifacts returns the core.Artifacts rows -exp names: its
// comma-separated ids in order, or for "all" every row marked InAll.
func selectArtifacts(exp string) ([]core.Artifact, error) {
	var rows []core.Artifact
	if exp == "all" {
		for _, a := range core.Artifacts {
			if a.InAll {
				rows = append(rows, a)
			}
		}
		return rows, nil
	}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		i := slices.IndexFunc(core.Artifacts, func(a core.Artifact) bool { return a.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		rows = append(rows, core.Artifacts[i])
	}
	return rows, nil
}

// loadDataset returns one protocol's dataset: read from path when it is
// set, else from a campaign run with cfg.
func loadDataset(path string, cfg core.CampaignConfig, consecutive bool) (*core.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.LoadDataset(f)
	}
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

// writePlots writes each plot file into dir.
func writePlots(dir string, plots []core.PlotFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("plot data: %w", err)
	}
	for _, p := range plots {
		if err := os.WriteFile(filepath.Join(dir, p.Name), []byte(p.Content), 0o644); err != nil {
			return fmt.Errorf("plot data %s: %w", p.Name, err)
		}
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
