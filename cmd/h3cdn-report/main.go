// Command h3cdn-report regenerates the paper's tables and figures.
//
// Usage:
//
//	h3cdn-report [-exp id[,id...]] [flags]
//
// Each experiment id is one row of core.Artifacts, which declares the
// campaigns the row reads. -exp all stands for the rows marked InAll, in
// table order; the slower sweeps run only when named, and a repeated id
// runs once. Every campaign starts from the campaign flags, path flags
// included, which core.CampaignConfig.BindFlags shares with
// h3cdn-measure. One core.Plan runs every distinct campaign config of
// the selected rows once; -dataset / -consecutive-dataset files written
// by h3cdn-measure under the same flags stand in for the standard and
// consecutive campaigns of the rows that read only per-page logs,
// Figure 9's 0%-added arm included; a file whose seed, protocol, corpus
// size or census shape differs from the run's is refused. Under -har-retention none the
// rows that read per-page logs are refused. -plot writes the raw series
// files of the rows that ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/simnet/traces"
	"h3cdn/internal/vantage"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("h3cdn-report", flag.ContinueOnError)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "h3cdn-report: "+format+"\n", args...)
	}
	in := core.ReportInputs{Campaign: core.CampaignConfig{Vantages: vantage.Points()}}
	buildPath := in.BindFlags(fs)
	fs.IntVar(&in.Pop.Users, "pop-users", 64, "popcache: baseline population size anchoring the per-user offered load")
	fs.Float64Var(&in.Pop.ArrivalRate, "pop-rate", 2, "popcache: session-arrival rate at the baseline population, sessions/s of virtual time")
	fs.DurationVar(&in.Pop.Duration, "pop-duration", time.Minute, "popcache: virtual-time horizon per campaign")
	fs.DurationVar(&in.Pop.EpochInterval, "pop-epoch", 10*time.Second, "popcache: epoch interval for the hit-rate warming trajectory")
	fs.DurationVar(&in.Pop.CacheTTL, "pop-ttl", 0, "popcache: edge-cache entry TTL (0 = default 60s)")
	fs.Func("pop-sizes", "popcache: comma-separated population `sizes` to sweep (empty = ¼×, 1×, 4× of -pop-users)", func(s string) (err error) {
		in.PopSizes, err = parseSizes(s)
		return err
	})
	ids := make([]string, 0, len(core.Artifacts)+1)
	for _, a := range core.Artifacts {
		ids = append(ids, a.ID)
	}
	var (
		exp      = fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(append(ids, "all"), ",")+")")
		profiles = fs.String("traces", strings.Join(traces.Names(), ","), "celltrace: comma-separated synthetic profiles (see -link-trace)")
		dsPath   = fs.String("dataset", "", "standard-protocol dataset JSON (from h3cdn-measure), refused unless it is this run's -seed, -pages and -probes census; the loss and path flags are not in the file, so matching them is the caller's job")
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
	if err := buildPath(); err != nil {
		logf("%v", err)
		return 2
	}
	if err := in.Campaign.Validate(); err != nil {
		logf("%v", err)
		return 2
	}
	sizes, err := core.PopCacheSizes(in.Pop, in.PopSizes)
	if err != nil {
		logf("-pop-*: %v", err)
		return 2
	}
	in.PopSizes = sizes

	rows, err := selectArtifacts(*exp)
	if err != nil {
		logf("%v", err)
		return 1
	}
	plan, err := core.NewPlan(rows, in, map[bool]string{false: *dsPath, true: *consPath})
	if err != nil {
		logf("%v", err)
		return 2
	}
	var plots []core.PlotFile
	err = plan.Run(logf, func(text string, files []core.PlotFile) {
		fmt.Println(text)
		plots = append(plots, files...)
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	if *plotDir != "" {
		if err := writePlots(*plotDir, plots); err != nil {
			logf("%v", err)
			return 1
		}
		logf("plot data written to %s", *plotDir)
	}
	return 0
}

// selectArtifacts returns the core.Artifacts rows -exp names: its
// comma-separated ids in order, "all" standing for every row marked
// InAll, and each row once.
func selectArtifacts(exp string) ([]core.Artifact, error) {
	var rows []core.Artifact
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		known := id == "all"
		for _, a := range core.Artifacts {
			if a.ID == id || id == "all" && a.InAll {
				known = true
				if !slices.ContainsFunc(rows, func(b core.Artifact) bool { return b.ID == a.ID }) {
					rows = append(rows, a)
				}
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
	}
	return rows, nil
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
