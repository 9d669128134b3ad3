// Command benchgate is the repository's benchmark regression gate: it
// runs the recorded hot-path benchmarks and compares them against their
// records in BENCH_baseline.json. Each benchmark has one record, the
// current one; a PR that moves a number re-records it and says so in
// CHANGES.md.
//
// It gates only numbers that do not depend on the machine or its load.
// Per benchmark that is allocs/op, near-exact: a record is the highest
// reading of several default-benchtime runs, and a 2% band over it
// absorbs pool/GC timing jitter on campaign-sized benchmarks (about one
// alloc per visit), while a zero baseline stays exact (0 x 1.02 = 0). This is what keeps the scheduler dispatch
// and timer-reset paths pinned at zero allocations. ns/op and B/op are
// measured and printed but never gated: wall time on a shared machine
// swings with its load (identical code has failed a ±40% band and
// passed on a rerun), and no baseline records them.
//
// The gated set includes BenchmarkRunVisitImpairedAllocs (fault layer
// armed: bursty loss + jitter + reordering), budgeting the recovery
// machinery, alongside BenchmarkRunVisitAllocs which pins the
// nil-Impairment visit path to its pre-fault-layer allocation budget.
//
// Baseline entries may name their package with a "pkg" field (a go-test
// path like "./internal/core"); benchmarks are grouped and run with one
// `go test -bench` invocation per package. `-smoke` widens the allocs/op
// band to 15% for the fast `make bench-smoke` pass (300ms): short runs
// amortize pool warm-up over fewer iterations.
//
// A second baseline file, BENCH_scaling.json, records the multi-core
// campaign scaling benchmark (`benchgate -baseline BENCH_scaling.json`,
// via `make bench-scaling`). Its entries are sub-benchmarks carrying
// custom metrics (events/sec, peak-RSS-MB) and are marked
// "informational": benchgate measures and prints them but applies no
// per-metric band — the gate is the file's "gates" array instead, e.g.
//
//	{"type": "min_efficiency", "benchmark": "BenchmarkCampaignScaling",
//	 "workers": 4, "min": 0.80}
//
// which derives parallel efficiency at N workers from the measured
// events/sec — speedup over the workers=1 run, normalized by the ideal
// parallelism min(N, NumCPU) — and fails below the floor. On a
// single-core machine the scaling benchmark skips itself and efficiency
// gates are skipped with it.
//
// Usage:
//
//	benchgate [-baseline BENCH_baseline.json] [-benchtime 2s] [-smoke] [-only substr]
//
// Exit status 0 when every recorded benchmark is within its gate,
// 1 otherwise. Stdlib-only by design: it must run anywhere `go test`
// does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metrics is one benchmark's numbers. NsOp and BOp are measured only:
// baselines do not record them.
type metrics struct {
	NsOp         float64 `json:"-"`
	BOp          float64 `json:"-"`
	AllocsOp     float64 `json:"allocs_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	PeakRSSMB    float64 `json:"peak_rss_mb,omitempty"`
}

// baselineEntry is one benchmark's record: where it lives and what the
// gate compares against.
type baselineEntry struct {
	// Pkg is the package the benchmark lives in, as a go-test path
	// relative to the repo root; empty means the root package.
	Pkg string `json:"pkg"`
	// Informational entries are measured and printed but carry no
	// per-metric band; they exist to be recorded and to feed derived
	// gates (see gateSpec).
	Informational bool `json:"informational"`
	metrics
}

// gateSpec is a derived gate computed over measured results rather than
// a per-benchmark band. Two types exist:
//
//   - "min_efficiency": parallel efficiency of benchmark/workers=N vs
//     benchmark/workers=1, normalized by min(N, NumCPU), must be at
//     least Min.
//   - "max_rss_growth": the peak-RSS-MB ratio between the largest and
//     smallest measured benchmark/<param>=N sub-benchmarks must be at
//     most Max — the bounded-memory claim, scale-agnostic so smoke and
//     record runs gate the same way. Param names the sub-benchmark
//     scale key ("pages" when omitted; the population-traffic memory
//     gate scales by "visits").
type gateSpec struct {
	Type      string  `json:"type"`
	Benchmark string  `json:"benchmark"`
	Param     string  `json:"param"`
	Workers   int     `json:"workers"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
}

type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
	Gates      []gateSpec               `json:"gates"`
}

// validate rejects a malformed baseline up front: an entry that names no
// Go benchmark or an unknown gate type would otherwise only surface
// after minutes of benchmarking.
func (b *baselineFile) validate() error {
	for name := range b.Benchmarks {
		if !strings.HasPrefix(name, "Benchmark") {
			return fmt.Errorf("%s: not a benchmark name", name)
		}
	}
	for _, g := range b.Gates {
		switch g.Type {
		case "min_efficiency":
			if g.Benchmark == "" || g.Min <= 0 {
				return fmt.Errorf("gates: %s gate needs a benchmark and a positive floor", g.Type)
			}
		case "max_rss_growth":
			if g.Benchmark == "" || g.Max <= 0 {
				return fmt.Errorf("gates: %s gate needs a benchmark and a positive ceiling", g.Type)
			}
		default:
			return fmt.Errorf("gates: unknown type %q", g.Type)
		}
	}
	return nil
}

// loadBaseline reads, parses, and validates a baseline file.
func loadBaseline(path string) (baselineFile, error) {
	var base baselineFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("parsing %s: %v", path, err)
	}
	if err := base.validate(); err != nil {
		return base, fmt.Errorf("%s: %v", path, err)
	}
	return base, nil
}

// selectGated lists every baseline entry and groups them by package for
// one `go test -bench` invocation each. Sub-benchmark entries
// ("Benchmark/sub=1") select their root benchmark in the -bench
// pattern; measurements are keyed by the full sub-benchmark name.
func selectGated(base *baselineFile) (names []string, byPkg map[string]map[string]bool) {
	byPkg = make(map[string]map[string]bool)
	for name, e := range base.Benchmarks {
		names = append(names, name)
		pkg := e.Pkg
		if pkg == "" {
			pkg = "."
		}
		root, _, _ := strings.Cut(name, "/")
		if byPkg[pkg] == nil {
			byPkg[pkg] = make(map[string]bool)
		}
		byPkg[pkg][root] = true
	}
	sort.Strings(names)
	return names, byPkg
}

// compareEntry applies the banded gate of one benchmark, allocs/op
// within allocsBand. It returns the violation descriptions, empty when
// the measurement passes.
func compareEntry(want, got metrics, allocsBand float64) []string {
	if got.AllocsOp > want.AllocsOp*allocsBand {
		return []string{fmt.Sprintf("allocs/op %.0f > %.0f +%.0f%%", got.AllocsOp, want.AllocsOp, (allocsBand-1)*100)}
	}
	return nil
}

// parseBenchLine parses one `go test -bench` result row, e.g.
//
//	BenchmarkSchedulerEventDispatch-4  84821144  14.12 ns/op  0 B/op  0 allocs/op
//	BenchmarkCampaignScaling/workers=4-2  1  3.6e9 ns/op  376342 events/sec  183.5 peak-RSS-MB
//
// into the benchmark name (GOMAXPROCS suffix stripped) and its metric
// value/unit pairs. Reports ok=false for non-result lines.
func parseBenchLine(line string) (name string, m metrics, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metrics{}, false
	}
	name = fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", metrics{}, false
	}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", metrics{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsOp, sawNs = v, true
		case "B/op":
			m.BOp = v
		case "allocs/op":
			m.AllocsOp = v
		case "events/sec":
			m.EventsPerSec = v
		case "peak-RSS-MB":
			m.PeakRSSMB = v
		}
	}
	return name, m, sawNs
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline file")
		benchtime = flag.String("benchtime", "2s", "go test -benchtime value")
		smoke     = flag.Bool("smoke", false, "widen the allocs/op band for a short-benchtime smoke pass")
		only      = flag.String("only", "", "run only benchmarks whose name contains this substring; gates on other benchmarks are skipped")
	)
	flag.Parse()

	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		return 1
	}

	names, byPkg := selectGated(&base)
	if *only != "" {
		names, byPkg = filterOnly(names, byPkg, *only)
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no gated benchmarks in %s\n", *baseline)
		return 1
	}

	measured := make(map[string]metrics)
	for pkg, rootSet := range byPkg {
		roots := make([]string, 0, len(rootSet))
		for root := range rootSet {
			roots = append(roots, root)
		}
		pattern := "^(" + strings.Join(roots, "|") + ")$"
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
			"-benchtime", *benchtime, "-count", "1", pkg)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: go test %s: %v\n%s", pkg, err, out)
			return 1
		}
		for _, line := range strings.Split(string(out), "\n") {
			if name, m, ok := parseBenchLine(line); ok {
				measured[name] = m
			}
		}
	}

	// Short-benchtime smoke runs amortize pool and free-list warm-up
	// over far fewer iterations, so at 300ms allocs/op reads up to ~8%
	// above the 2s records on identical code (at 100ms, ~15%); the smoke
	// band is wide enough to absorb that while still catching real
	// regressions.
	allocsBand := 1.02
	if *smoke {
		allocsBand = 1.15
	}

	failed := false
	for _, name := range names {
		entry := base.Benchmarks[name]
		want := entry.metrics
		got, ok := measured[name]
		if !ok {
			if entry.Informational && runtime.NumCPU() == 1 {
				fmt.Printf("benchgate: skip %s: benchmark skipped on this machine\n", name)
				continue
			}
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: benchmark did not run\n", name)
			failed = true
			continue
		}
		if entry.Informational {
			fmt.Printf("benchgate: info %-34s %12.2f ns/op  %10.0f events/sec (base %.0f)  %7.1f peak-RSS-MB (base %.1f)\n",
				name, got.NsOp, got.EventsPerSec, want.EventsPerSec, got.PeakRSSMB, want.PeakRSSMB)
			continue
		}
		status := "ok  "
		reasons := compareEntry(want, got, allocsBand)
		if len(reasons) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchgate: %s %-34s %12.2f ns/op  %8.0f B/op  %5.0f allocs/op (base %.0f)\n",
			status, name, got.NsOp, got.BOp, got.AllocsOp, want.AllocsOp)
		for _, r := range reasons {
			fmt.Printf("benchgate:      %s: %s\n", name, r)
		}
	}
	for _, g := range base.Gates {
		if *only != "" && !strings.Contains(g.Benchmark, *only) {
			fmt.Printf("benchgate: skip %s %s gate: filtered by -only %s\n", g.Benchmark, g.Type, *only)
			continue
		}
		if !checkGate(g, measured) {
			failed = true
		}
	}
	if failed {
		fmt.Println("benchgate: FAIL")
		return 1
	}
	fmt.Println("benchgate: PASS")
	return 0
}

// filterOnly restricts a selectGated result to benchmarks whose name
// contains the -only substring, dropping packages left with no roots.
func filterOnly(names []string, byPkg map[string]map[string]bool, only string) ([]string, map[string]map[string]bool) {
	var kept []string
	for _, n := range names {
		if strings.Contains(n, only) {
			kept = append(kept, n)
		}
	}
	roots := make(map[string]bool)
	for _, n := range kept {
		root, _, _ := strings.Cut(n, "/")
		roots[root] = true
	}
	outPkg := make(map[string]map[string]bool)
	for pkg, rootSet := range byPkg {
		for root := range rootSet {
			if !roots[root] {
				continue
			}
			if outPkg[pkg] == nil {
				outPkg[pkg] = make(map[string]bool)
			}
			outPkg[pkg][root] = true
		}
	}
	return kept, outPkg
}

// checkGate evaluates one derived gate against the measured results,
// printing its verdict; it reports false on failure.
func checkGate(g gateSpec, measured map[string]metrics) bool {
	switch g.Type {
	case "min_efficiency":
		// handled below
	case "max_rss_growth":
		return checkRSSGrowthGate(g, measured)
	default:
		fmt.Fprintf(os.Stderr, "benchgate: FAIL gate: unknown type %q\n", g.Type)
		return false
	}
	if runtime.NumCPU() == 1 {
		fmt.Printf("benchgate: skip %s efficiency gate: single-core machine\n", g.Benchmark)
		return true
	}
	// On machines with fewer cores than the gated worker count, evaluate
	// at the largest measurable parallelism instead: running 4 workers on
	// 2 cores measures oversubscription and GC pressure, not scaling.
	ideal := g.Workers
	if n := runtime.NumCPU(); n < ideal {
		ideal = n
	}
	base, okBase := measured[g.Benchmark+"/workers=1"]
	if !okBase || base.EventsPerSec <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL %s efficiency gate: missing workers=1 events/sec\n", g.Benchmark)
		return false
	}
	// A speedup of at least min x ideal at ANY worker count >= ideal
	// proves the pool extracts the required fraction of ideal-way
	// parallelism — taking the best measured count makes the gate robust
	// to one sub-benchmark landing in a neighbor's CPU burst, without
	// weakening the claim (more workers never make ideal-way speedup
	// easier).
	best, bestW := 0.0, 0
	for name, m := range measured {
		rest, found := strings.CutPrefix(name, g.Benchmark+"/workers=")
		if !found {
			continue
		}
		w, err := strconv.Atoi(rest)
		if err != nil || w < ideal {
			continue
		}
		if sp := m.EventsPerSec / base.EventsPerSec; sp > best {
			best, bestW = sp, w
		}
	}
	if bestW == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL %s efficiency gate: no workers>=%d measurement\n", g.Benchmark, ideal)
		return false
	}
	eff := best / float64(ideal)
	// Enforce only where the gated worker count is actually measurable:
	// below g.Workers cores, the clamped reading mixes in GC and OS
	// contention for the undersized core budget (observed ±2× on the
	// shared 2-core reference container), so it is reported, not gated.
	enforced := runtime.NumCPU() >= g.Workers
	ok := eff >= g.Min || !enforced
	status := "ok  "
	switch {
	case !enforced:
		status = "info"
	case !ok:
		status = "FAIL"
	}
	fmt.Printf("benchgate: %s %s parallel efficiency vs ideal ×%d: %.2f (floor %.2f, speedup %.2f at %d workers, %d CPUs",
		status, g.Benchmark, ideal, eff, g.Min, best, bestW, runtime.NumCPU())
	if !enforced {
		fmt.Printf("; not enforced below %d cores", g.Workers)
	}
	fmt.Println(")")
	return ok
}

// checkRSSGrowthGate enforces a "max_rss_growth" gate: among the
// measured benchmark/<param>=N sub-benchmarks, the peak-RSS-MB of the
// largest N must be within Max times that of the smallest N. The gate is
// deliberately scale-agnostic — it binds whichever scales actually
// ran (smoke defaults or record-scale env overrides), so the sub-linear
// memory claim is checked on every pass, not just record runs.
func checkRSSGrowthGate(g gateSpec, measured map[string]metrics) bool {
	param := g.Param
	if param == "" {
		param = "pages"
	}
	minPages, maxPages := 0, 0
	var minRSS, maxRSS float64
	for name, m := range measured {
		rest, found := strings.CutPrefix(name, g.Benchmark+"/"+param+"=")
		if !found {
			continue
		}
		n, err := strconv.Atoi(rest)
		if err != nil || m.PeakRSSMB <= 0 {
			continue
		}
		if minPages == 0 || n < minPages {
			minPages, minRSS = n, m.PeakRSSMB
		}
		if n > maxPages {
			maxPages, maxRSS = n, m.PeakRSSMB
		}
	}
	if minPages == 0 || maxPages == minPages {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL %s rss-growth gate: need at least two %s=N measurements with peak-RSS-MB\n", g.Benchmark, param)
		return false
	}
	ratio := maxRSS / minRSS
	ok := ratio <= g.Max
	status := "ok  "
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("benchgate: %s %s peak-RSS growth: %.2fx over a %dx %s spread (%.1f MB @ %d → %.1f MB @ %d, ceiling %.2fx)\n",
		status, g.Benchmark, ratio, maxPages/minPages, param, minRSS, minPages, maxRSS, maxPages, g.Max)
	return ok
}
