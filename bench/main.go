// Command bench is the repository's benchmark: it runs four campaign
// workloads through core.RunCampaign, reports five end-to-end metrics per
// workload as medians of timed repeats, checks every run's outputs, and —
// with -trace — adds an outside-in layer cost map. README.md in this
// directory defines the workloads, metrics and bounds; BENCHMARK.json at
// the repository root restates them for the driver.
//
// Usage:
//
//	go run ./bench -workload all -trace
//	go run ./bench --workload census --seed 7 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"h3cdn/internal/core"
)

const (
	defaultSeed    = 2022
	defaultSeconds = 24 // BENCHMARK.json run_seconds
	setupReps      = 31
	minRepeats     = 2
	// calibrationSteps is the length of the fixed pure-CPU kernel run
	// before the first and after the last workload (the noise guard).
	calibrationSteps = 200_000_000
	// calibrationTolerance is how far the two calibration runs may
	// differ before the whole run is marked noisy.
	calibrationTolerance = 0.10
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	full     bool
	out      string
}

// header records where and how a result was measured.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // also the campaigns' worker count
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// costRow is one line of a workload's cost map.
type costRow struct {
	Layer         string  `json:"layer"`
	CPUShare      float64 `json:"cpu_share"`
	CPUMsPerVisit float64 `json:"cpu_ms_per_visit"`
}

type workloadResult struct {
	Name      string             `json:"name"`
	Size      int                `json:"size"`
	Pages     int                `json:"pages"`
	Visits    int64              `json:"visits"`
	Events    int64              `json:"events"`
	Repeats   int                `json:"repeats"`
	SimDigest string             `json:"sim_digest"`
	Noisy     bool               `json:"noisy"`
	E2E       map[string]value   `json:"end_to_end"`
	Layers    map[string]value   `json:"per_layer,omitempty"`
	CostMap   []costRow          `json:"cost_map,omitempty"`
	SpanSelf  map[string]float64 `json:"span_self_ms,omitempty"`

	// Visits attempted and failed (shed) over all timed repeats, for the
	// driver's result line.
	attempted, failed int64
}

type result struct {
	Header        header           `json:"header"`
	Workloads     []workloadResult `json:"workloads"`
	Kernels       map[string]value `json:"kernels,omitempty"`
	CalibrationMs [2]float64       `json:"calibration_ms"`
	Noisy         bool             `json:"noisy"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if _, err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// normalizeTraceArg lets -trace be written both as a switch (-trace) and
// with the driver's separate value (--trace 0, --trace 1), which the
// flag package would otherwise read as a switch followed by a stray
// positional argument.
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (the campaign seed; the corpus is fixed)")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "host-time budget for a workload's timed repeats")
	fs.BoolVar(&o.trace, "trace", false, "add the traced pass (per-layer metrics, cost map, spans.json)")
	fs.BoolVar(&o.smoke, "smoke", false, "1/16 of paper scale, one repeat, no noise marking")
	fs.BoolVar(&o.full, "full", false, "paper-scale workload sizes (the issue's reference configurations)")
	fs.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result.json and spans.json (empty: write nothing)")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "all" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q (want %s, or all)", o.workload, strings.Join(workloadNames(), ", "))
		}
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return o, fmt.Errorf("-seconds %v: must be positive", o.seconds)
	}
	if o.smoke && o.full {
		return o, errors.New("-smoke and -full are mutually exclusive")
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// calibrate runs a fixed xorshift loop and reports its host time: pure
// register arithmetic, so it moves only when the host does.
func calibrate(steps int) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	if x == 0 { // never true for xorshift; keeps the loop observable
		return 0
	}
	return d.Seconds() * 1e3
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// run executes the benchmark and writes its report to stdout (progress
// goes to stderr). A non-nil error means a check failed; no result line
// is printed then.
func run(opts options, stdout, stderr io.Writer) (*result, error) {
	workers := min(2, runtime.NumCPU())
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)

	selected := workloads
	if opts.workload != "all" {
		w, _ := workloadByName(opts.workload)
		selected = []workload{w}
	}
	scale := "bench"
	switch {
	case opts.smoke:
		scale = "smoke"
	case opts.full:
		scale = "full"
	}
	res := &result{Header: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: workers,
		GoVersion: runtime.Version(), Kernel: kernelRelease(),
		Seed: opts.seed, Scale: scale, Seconds: opts.seconds,
	}}
	calSteps := calibrationSteps
	if opts.smoke {
		calSteps /= 16
	}
	rec := newSpanRecorder()

	res.CalibrationMs[0] = calibrate(calSteps)
	for _, w := range selected {
		fmt.Fprintf(stderr, "bench: %s ...\n", w.name)
		rec.workload = w.name
		wr, err := runWorkload(w, opts, workers, rec, stderr)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		res.Workloads = append(res.Workloads, *wr)
	}
	var kernels *metricSet
	if opts.trace {
		fmt.Fprintf(stderr, "bench: layer kernels ...\n")
		rec.workload = "kernels"
		kernels = newMetricSet(kernelDefs)
		if err := runKernels(rec, kernels, opts.smoke); err != nil {
			return nil, err
		}
		if err := kernels.complete(); err != nil {
			return nil, fmt.Errorf("layer kernels: %w", err)
		}
		res.Kernels = kernels.values
	}
	res.CalibrationMs[1] = calibrate(calSteps)

	a, b := res.CalibrationMs[0], res.CalibrationMs[1]
	res.Noisy = !opts.smoke && math.Abs(a-b)/math.Min(a, b) > calibrationTolerance
	for _, wr := range res.Workloads {
		res.Noisy = res.Noisy || wr.Noisy
	}

	if opts.out != "" {
		if err := writeOutputs(opts.out, res, rec, opts.trace); err != nil {
			return nil, err
		}
	}
	printReport(stdout, res)
	for _, wr := range res.Workloads {
		if err := printResultLine(stdout, &wr, res.Kernels, opts.trace); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func writeOutputs(dir string, res *result, rec *spanRecorder, trace bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if trace {
		return writeSpans(filepath.Join(dir, "spans.json"), rec.spans)
	}
	return nil
}

// runWorkload measures one workload: set-up, warm-up, timed repeats with
// their checks, and the traced pass when asked for.
func runWorkload(w workload, opts options, workers int, rec *spanRecorder, stderr io.Writer) (*workloadResult, error) {
	size := w.bench
	switch {
	case opts.smoke:
		size = max(w.full/16, 1)
	case opts.full:
		size = w.full
	}

	// Set-up, timed apart from the campaign: the median of several
	// builds, because one build is tens of milliseconds.
	reps := setupReps
	if opts.smoke {
		reps = 1
	}
	var in *inputs
	setup := make([]float64, reps)
	for i := range setup {
		start := time.Now()
		built, err := buildInputs(w, size)
		if err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
		in = built
	}
	cfg := campaignConfig(w, in, size, opts.seed, workers)

	// Untimed warm-up at an eighth of the size: first-use costs (page
	// faults, pool growth, lazy tables) land here, not in repeat one.
	warmSize := max(size/8, 1)
	warmIn, err := buildInputs(w, warmSize)
	if err != nil {
		return nil, err
	}
	if _, err := core.RunCampaign(campaignConfig(w, warmIn, warmSize, opts.seed, workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Timed repeats: as many as fit in the budget, at least two, so that
	// the determinism check always has a pair to compare. The traced pass
	// needs the other half of the budget for itself.
	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		budget /= 2
	}
	var (
		timed   []repeat
		digest  string
		elapsed time.Duration
	)
	for {
		if n := len(timed); n > 0 {
			// Drop the previous dataset before the next campaign runs, or
			// every repeat but the first carries it in its live heap.
			timed[n-1].ds = nil
		}
		r, err := runRepeat(cfg)
		if err != nil {
			return nil, fmt.Errorf("repeat %d: %w", len(timed)+1, err)
		}
		if digest, err = verifyRepeat(cfg, r.ds, digest); err != nil {
			return nil, fmt.Errorf("repeat %d: %w", len(timed)+1, err)
		}
		timed = append(timed, r)
		elapsed += r.wall
		fmt.Fprintf(stderr, "bench: %s repeat %d: %.2fs, live heap %.1f MB mean, %.1f MB peak\n",
			w.name, len(timed), r.wall.Seconds(), r.liveMean/(1<<20), float64(r.livePeak)/(1<<20))
		if opts.smoke || (len(timed) >= minRepeats && elapsed+r.wall > budget) {
			break
		}
	}

	ds := timed[len(timed)-1].ds
	wr := &workloadResult{
		Name: w.name, Size: size, Pages: len(in.corpus.Pages),
		Visits: visits(ds), Events: ds.Stats.Events,
		Repeats: len(timed), SimDigest: digest,
	}
	shed := ds.Stats.Traffic.VisitsShed
	wr.failed = shed * int64(len(timed))
	wr.attempted = (visits(ds) + shed) * int64(len(timed))
	e2e := newMetricSet(e2eDefs)
	setEndToEnd(e2e, setup, timed)
	if err := e2e.complete(); err != nil {
		return nil, err
	}
	wr.E2E = e2e.values
	if !opts.smoke {
		for _, d := range e2eDefs {
			// setup_s is a median of builds, not of repeats; its
			// min/max spread says nothing about the campaign.
			if v := e2e.values[d.name]; d.name != "setup_s" && v.Min > 0 && v.Max/v.Min-1 > d.bound {
				wr.Noisy = true
			}
		}
	}

	if opts.trace {
		layers := newMetricSet(workloadLayerDefs)
		shares, err := tracedPass(rec, layers, cfg, timed, digest, workers, opts.smoke)
		if err != nil {
			return nil, err
		}
		if err := layers.complete(); err != nil {
			return nil, err
		}
		wr.Layers = layers.values
		cpuMs := e2e.values["cpu_ms_per_visit"].Value
		for bucket, share := range shares {
			wr.CostMap = append(wr.CostMap, costRow{Layer: bucket, CPUShare: share, CPUMsPerVisit: share * cpuMs})
		}
		sort.Slice(wr.CostMap, func(i, j int) bool {
			a, b := wr.CostMap[i], wr.CostMap[j]
			if a.CPUShare != b.CPUShare {
				return a.CPUShare > b.CPUShare
			}
			return a.Layer < b.Layer
		})
		wr.SpanSelf = map[string]float64{}
		for name, d := range selfByName(rec.spans, w.name) {
			wr.SpanSelf[name] = d.Seconds() * 1e3
		}
	}
	return wr, nil
}

// setEndToEnd reduces the timed repeats to the end-to-end metrics: each
// is the median over repeats, with min and max beside it.
func setEndToEnd(out *metricSet, setup []float64, timed []repeat) {
	per := map[string][]float64{}
	for _, r := range timed {
		n := float64(r.visits)
		per["visits_per_sec"] = append(per["visits_per_sec"], n/r.wall.Seconds())
		per["cpu_ms_per_visit"] = append(per["cpu_ms_per_visit"], r.cpu.Seconds()*1e3/n)
		per["alloc_kb_per_visit"] = append(per["alloc_kb_per_visit"], float64(r.allocBytes)/1024/n)
		per["live_heap_kb_per_visit"] = append(per["live_heap_kb_per_visit"], r.liveMean/1024/n)
	}
	per["setup_s"] = setup
	for _, d := range e2eDefs {
		xs := per[d.name]
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		out.setValue(d.name, value{Value: median(xs), Min: lo, Max: hi, N: len(xs)})
	}
}

// printReport writes one line per metric — workload, metric, value,
// unit, then [min max n] where the value is a median — followed by each
// traced workload's cost map.
func printReport(w io.Writer, res *result) {
	h := res.Header
	fmt.Fprintf(w, "# h3cdn bench: nproc=%d GOMAXPROCS=workers=%d %s linux=%s seed=%d scale=%s seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Seed, h.Scale, h.Seconds)
	fmt.Fprintf(w, "# calibration_ms before=%.2f after=%.2f noisy=%v\n", res.CalibrationMs[0], res.CalibrationMs[1], res.Noisy)
	line := func(workload string, d metricDef, v value) {
		fmt.Fprintf(w, "%-12s %-34s %14.6g %-6s", workload, d.name, v.Value, v.Unit)
		switch {
		case v.Note != "":
			fmt.Fprintf(w, " [%s n=%d]", v.Note, v.N)
		case v.N > 0:
			fmt.Fprintf(w, " [%.6g %.6g %d]", v.Min, v.Max, v.N)
		}
		fmt.Fprintln(w)
	}
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "# %s: size=%d pages=%d visits=%d events=%d repeats=%d noisy=%v sim_digest=%s\n",
			wr.Name, wr.Size, wr.Pages, wr.Visits, wr.Events, wr.Repeats, wr.Noisy, wr.SimDigest)
		for _, d := range e2eDefs {
			line(wr.Name, d, wr.E2E[d.name])
		}
		if wr.Layers == nil {
			continue
		}
		for _, d := range workloadLayerDefs {
			line(wr.Name, d, wr.Layers[d.name])
		}
	}
	for _, d := range kernelDefs {
		if v, ok := res.Kernels[d.name]; ok {
			line("kernel", d, v)
		}
	}
	for _, wr := range res.Workloads {
		if wr.CostMap == nil {
			continue
		}
		fmt.Fprintf(w, "\n# cost map: %s (%.0f events/visit, %.3f CPU ms/visit)\n", wr.Name,
			wr.Layers["simnet.events_per_visit"].Value, wr.E2E["cpu_ms_per_visit"].Value)
		fmt.Fprintf(w, "# %-16s %10s %16s\n", "layer", "cpu_share", "cpu_ms_per_visit")
		for _, row := range wr.CostMap {
			fmt.Fprintf(w, "# %-16s %10.4f %16.4f\n", row.Layer, row.CPUShare, row.CPUMsPerVisit)
		}
	}
}

// printResultLine writes the driver's result object for one workload:
// the end-to-end metrics of an untraced run, or every per-layer metric
// (the workload's own plus the kernels) of a traced one. Attempted and
// failed count visits: a visit the open-loop engine shed at its
// in-flight bound is a failed operation.
func printResultLine(w io.Writer, wr *workloadResult, kernels map[string]value, trace bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	add := func(vs map[string]value) {
		for name, v := range vs {
			metrics[name] = metric{v.Value, v.Unit}
		}
	}
	if trace {
		add(wr.Layers)
		add(kernels)
	} else {
		add(wr.E2E)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, wr.attempted, wr.failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
