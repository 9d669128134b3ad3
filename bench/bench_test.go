package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the
// benchmark emits from: same workloads and reasons, same end-to-end
// metrics with units, directions and bounds, same per-layer metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(bf.Command, want) {
		t.Errorf("command = %v, want %v", bf.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(e2eDefs) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(e2eDefs))
	}
	for i, d := range e2eDefs {
		got := bf.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, code has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	layer := append(append([]metricDef{}, workloadLayerDefs...), kernelDefs...)
	if len(bf.PerLayer) != len(layer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(layer))
	}
	seen := map[string]bool{}
	for i, d := range layer {
		got := bf.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, code has %+v", i, got, d)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range append(layer, e2eDefs...) {
		if !nameRE.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not a valid name", d.name)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
}

// TestSmokeTraceEmitsEveryMetric drives `-smoke -trace -workload all`
// in-process and checks the report: every workload, every end-to-end and
// per-layer name exactly once with a unit, a result line per workload in
// the driver's shape, spans with parent links, and cost maps summing to 1.
func TestSmokeTraceEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	res, err := run(options{workload: "all", seed: defaultSeed, seconds: 1, trace: true, smoke: true, out: out}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(res.Workloads), len(workloads))
	}
	checkValues := func(where string, defs []metricDef, got map[string]value) {
		t.Helper()
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", where, len(got), len(defs))
		}
		for _, d := range defs {
			v, ok := got[d.name]
			switch {
			case !ok:
				t.Errorf("%s: %s missing", where, d.name)
			case v.Unit != d.unit || v.Unit == "":
				t.Errorf("%s: %s has unit %q, want %q", where, d.name, v.Unit, d.unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", where, d.name, v.Value)
			}
		}
	}
	for i, wr := range res.Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, wr.Name, workloads[i].name)
		}
		if wr.Repeats != 1 || len(wr.SimDigest) != 64 || wr.Visits <= 0 || wr.Events <= 0 {
			t.Errorf("%s: repeats=%d digest=%q visits=%d events=%d", wr.Name, wr.Repeats, wr.SimDigest, wr.Visits, wr.Events)
		}
		checkValues(wr.Name+" end_to_end", e2eDefs, wr.E2E)
		checkValues(wr.Name+" per_layer", workloadLayerDefs, wr.Layers)
		for _, d := range e2eDefs {
			if wr.E2E[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", wr.Name, d.name, wr.E2E[d.name].Value)
			}
		}
		var sum float64
		for _, row := range wr.CostMap {
			sum += row.CPUShare
		}
		if len(wr.CostMap) != len(cpuLayers)+3 || math.Abs(sum-1) > 0.001 {
			t.Errorf("%s: cost map has %d rows summing to %v", wr.Name, len(wr.CostMap), sum)
		}
		if wr.SpanSelf["core.RunVisit"] <= 0 {
			t.Errorf("%s: no self time recorded for core.RunVisit spans", wr.Name)
		}
	}
	checkValues("kernels", kernelDefs, res.Kernels)

	// The printed report: one line per (workload, metric), then one
	// result object per workload as the last lines.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	printed := map[string]int{}
	var resultLines []string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "{"):
			resultLines = append(resultLines, l)
		case l == "" || strings.HasPrefix(l, "#"):
		default:
			f := strings.Fields(l)
			if len(f) < 4 {
				t.Errorf("metric line %q: want workload, metric, value, unit", l)
				continue
			}
			printed[f[0]+" "+f[1]]++
		}
	}
	want := len(workloads)*(len(e2eDefs)+len(workloadLayerDefs)) + len(kernelDefs)
	if len(printed) != want {
		t.Errorf("%d distinct metric lines printed, want %d", len(printed), want)
	}
	for key, n := range printed {
		if n != 1 {
			t.Errorf("%s printed %d times", key, n)
		}
	}
	if len(resultLines) != len(workloads) || !strings.HasPrefix(lines[len(lines)-1], "{") {
		t.Fatalf("%d result lines, want %d with the last line one of them", len(resultLines), len(workloads))
	}
	for i, l := range resultLines {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("result line %d: %v", i, err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result line %d has keys %v", i, keys)
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(workloadLayerDefs)+len(kernelDefs) {
			t.Errorf("traced result line %d carries %d metrics, want every per-layer metric (%d)",
				i, len(metrics), len(workloadLayerDefs)+len(kernelDefs))
		}
		for name, m := range metrics {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("result line %d: %s lacks a value or unit", i, name)
			}
		}
	}

	// spans.json: parent links resolve, and nesting reaches the calls
	// into core.
	data, err := os.ReadFile(filepath.Join(out, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	nested := 0
	for _, s := range spans {
		if s.Parent != 0 {
			nested++
			if !ids[s.Parent] {
				t.Fatalf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
			}
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	if nested == 0 {
		t.Error("spans.json has no nested spans")
	}
	if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
		t.Error(err)
	}
}

// TestUntracedResultLineCarriesEndToEndMetrics checks the other shape of
// the driver's result line, and that the same seed reproduces the digest.
func TestUntracedResultLineCarriesEndToEndMetrics(t *testing.T) {
	digests := map[string]bool{}
	for i := 0; i < 2; i++ {
		var stdout bytes.Buffer
		res, err := run(options{workload: "census", seed: 7, seconds: 1, smoke: true}, &stdout, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		digests[res.Workloads[0].SimDigest] = true
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var obj struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if !obj.Correct || obj.Attempted < 1 || obj.Failed != 0 || len(obj.Metrics) != len(e2eDefs) {
			t.Errorf("result line: %+v", obj)
		}
		for _, d := range e2eDefs {
			if m, ok := obj.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("result line lacks %s in %s", d.name, d.unit)
			}
		}
	}
	if len(digests) != 1 {
		t.Errorf("two runs of one seed produced digests %v", digests)
	}
}

func TestNormalizeTraceArg(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "census", "--seed", "3", "--seconds", "20", "--trace", "0"}, []string{"--workload", "census", "--seed", "3", "--seconds", "20", "-trace=0"}},
		{[]string{"--trace", "1", "-smoke"}, []string{"-trace=1", "-smoke"}},
		{[]string{"-workload", "all", "-trace"}, []string{"-workload", "all", "-trace"}},
		{[]string{"-trace", "-smoke"}, []string{"-trace", "-smoke"}},
	} {
		if got := normalizeTraceArg(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeTraceArg(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	o, err := parseFlags([]string{"--workload", "lossy", "--seed", "9", "--seconds", "5", "--trace", "1"})
	if err != nil || o.workload != "lossy" || o.seed != 9 || o.seconds != 5 || !o.trace {
		t.Errorf("driver arguments parsed to %+v, %v", o, err)
	}
	if o, err := parseFlags([]string{"--trace", "0"}); err != nil || o.trace {
		t.Errorf("--trace 0 parsed to %+v, %v", o, err)
	}
	if _, err := parseFlags([]string{"-workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestMetricSetRejectsBadEmissions(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "ms"}, {name: "b", unit: "s"}}
	ms := newMetricSet(defs)
	ms.set("a", 1.5)
	if ms.values["a"].Unit != "ms" {
		t.Errorf("unit not taken from the definition: %+v", ms.values["a"])
	}
	if err := ms.complete(); err == nil || !strings.Contains(err.Error(), "never emitted: b") {
		t.Errorf("missing metric not reported: %v", err)
	}
	ms.set("b", 2)
	if err := ms.complete(); err != nil {
		t.Errorf("complete set refused: %v", err)
	}
	for what, emit := range map[string]func(*metricSet){
		"emitted twice": func(ms *metricSet) { ms.set("a", 1); ms.set("a", 2) },
		"not defined":   func(ms *metricSet) { ms.set("c", 1) },
		"not finite":    func(ms *metricSet) { ms.set("b", math.NaN()) },
	} {
		ms := newMetricSet(defs)
		emit(ms)
		ms.set("a", 1) // the first refusal sticks through later emissions
		ms.set("b", 1)
		if err := ms.complete(); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("want a %q refusal, got %v", what, err)
		}
	}
}

// --- span self time ---

func TestSelfTimesNestedFixture(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Workload: "w", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Workload: "w", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 2, Name: "leaf", Workload: "w", Start: 15 * ms, End: 25 * ms},
		{ID: 4, Parent: 1, Name: "a", Workload: "w", Start: 50 * ms, End: 70 * ms},
		// Overlaps span 4: the union covers 50..80, not 20+20.
		{ID: 5, Parent: 1, Name: "b", Workload: "w", Start: 60 * ms, End: 80 * ms},
		{ID: 6, Parent: 0, Name: "root", Workload: "other", Start: 0, End: 7 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 − (30 + 30)
		2: 20 * time.Millisecond, // 30 − 10
		3: 10 * time.Millisecond,
		4: 20 * time.Millisecond,
		5: 20 * time.Millisecond,
		6: 7 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byName := selfByName(spans, "w")
	if byName["a"] != 40*time.Millisecond || byName["root"] != 40*time.Millisecond || byName["leaf"] != 10*time.Millisecond {
		t.Errorf("selfByName = %v", byName)
	}

	r := newSpanRecorder()
	r.workload = "w"
	outer := r.begin("outer")
	r.do("inner", func() {})
	r.end(outer)
	if r.spans[1].Parent != r.spans[0].ID || r.spans[0].Parent != 0 || r.spans[1].Workload != "w" {
		t.Errorf("recorder nesting: %+v", r.spans)
	}
}

// --- live-heap mean ---

func TestWeightedMeanWeighsByInterval(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms ...int) []time.Time {
		ts := make([]time.Time, len(ms))
		for i, m := range ms {
			ts[i] = t0.Add(time.Duration(m) * time.Millisecond)
		}
		return ts
	}
	// 100 held for 1 ms, 200 for 9 ms (a starved sampler's long gap); the
	// closing reading only ends the last step.
	if got := weightedMean(at(0, 1, 10), []uint64{100, 200, 999}); math.Abs(got-190) > 1e-9 {
		t.Errorf("weightedMean = %v, want 190", got)
	}
	if got := weightedMean(at(5, 5), []uint64{7, 9}); got != 9 {
		t.Errorf("weightedMean over no time = %v, want the last reading", got)
	}
}

// --- tail percentile picker ---

func TestTailPick(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailPick must sort
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		permille int
		value    float64
	}{
		{4, 500, 2},       // too few for any tail: the median
		{19, 500, 10},     // still fewer than ten beyond p50
		{20, 500, 10},     // exactly ten beyond p50
		{64, 750, 48},     // 16 beyond p75, 6 beyond p90
		{100, 900, 90},    // exactly ten beyond p90
		{200, 950, 190},   // ten beyond p95
		{1000, 990, 990},  // ten beyond p99
		{9999, 990, 9900}, // 9.999 beyond p99.9 is not ten
		{10000, 999, 9990},
	} {
		pm, v := tailPick(seq(c.n))
		if pm != c.permille || v != c.value {
			t.Errorf("tailPick(n=%d) = p%v, %v; want p%v, %v", c.n, float64(pm)/10, v, float64(c.permille)/10, c.value)
		}
	}
	if _, v := tailPick(nil); !math.IsNaN(v) {
		t.Errorf("tailPick(nil) = %v, want NaN", v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// --- profile.proto reader ---

// protoBuf is a minimal protobuf writer for building the test profile.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *protoBuf) intField(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

func (p *protoBuf) bytesField(field int, data []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *protoBuf) packed(field int, vs ...uint64) {
	var inner protoBuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(field, inner.b)
}

func buildTestProfile(t *testing.T, compress bool) []byte {
	t.Helper()
	strs := []string{
		"", "samples", "count", "cpu", "nanoseconds",
		"h3cdn/internal/simnet.(*Scheduler).Step", // 5
		"runtime.mallocgc",                        // 6
		"runtime.gcBgMarkWorker",                  // 7
		"main.runRepeat",                          // 8
		"h3cdn/internal/har.(*Log).WriteJSON",     // 9
		"h3cdn/internal/tcpsim.(*Conn).onSegment", // 10
		"runtime.mcall",                           // 11
		"h3cdn/internal/simnet/traces.Profile",    // 12
	}
	var prof protoBuf
	for _, pair := range [][2]uint64{{1, 2}, {3, 4}} { // sample_type
		var vt protoBuf
		vt.intField(1, pair[0])
		vt.intField(2, pair[1])
		prof.bytesField(1, vt.b)
	}
	// Functions 1..8 name strings 5..12; location i holds function i,
	// except location 20, which inlines function 2 (mallocgc) into 6
	// (tcpsim): two Line entries, innermost first.
	for id := uint64(1); id <= 8; id++ {
		var fn protoBuf
		fn.intField(1, id)
		fn.intField(2, id+4)
		prof.bytesField(5, fn.b)
		var line, loc protoBuf
		line.intField(1, id)
		line.intField(2, 42) // line number, ignored
		loc.intField(1, id)
		loc.intField(3, 0xdeadbeef) // address, ignored
		loc.bytesField(4, line.b)
		prof.bytesField(4, loc.b)
	}
	var l1, l2, inl protoBuf
	l1.intField(1, 2)
	l2.intField(1, 6)
	inl.intField(1, 20)
	inl.bytesField(4, l1.b)
	inl.bytesField(4, l2.b)
	prof.bytesField(4, inl.b)

	sample := func(value uint64, packedLocs bool, locs ...uint64) {
		var s protoBuf
		if packedLocs {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.intField(1, l)
			}
		}
		s.packed(2, 1, value)
		prof.bytesField(2, s.b)
	}
	sample(40, true, 2, 1, 4)   // mallocgc ← simnet ← main: simnet
	sample(30, false, 20, 4)    // mallocgc inlined in tcpsim ← main: tcpsim
	sample(10, true, 3)         // background mark worker: runtime.gc
	sample(5, true, 7)          // mcall alone: runtime.other
	sample(5, true, 2, 4)       // mallocgc ← main only: other
	sample(6, true, 5, 4)       // har: an internal package outside the named layers: other
	sample(4, true, 8, 1, 4)    // simnet/traces is part of simnet
	prof.intField(9, 123456789) // time_nanos, ignored
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	if !compress {
		return prof.b
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

func TestParseProfileHandBuilt(t *testing.T) {
	for _, compress := range []bool{false, true} {
		samples, err := parseProfile(buildTestProfile(t, compress), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 7 {
			t.Fatalf("%d samples, want 7", len(samples))
		}
		if got, want := samples[0].frames, []string{"runtime.mallocgc", "h3cdn/internal/simnet.(*Scheduler).Step", "main.runRepeat"}; !reflect.DeepEqual(got, want) || samples[0].value != 40 {
			t.Errorf("sample 0 = %+v, want frames %v value 40", samples[0], want)
		}
		if got, want := samples[1].frames, []string{"runtime.mallocgc", "h3cdn/internal/tcpsim.(*Conn).onSegment", "main.runRepeat"}; !reflect.DeepEqual(got, want) {
			t.Errorf("inlined location expanded to %v, want %v", got, want)
		}
		shares, err := cpuShares(samples)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			"simnet": 0.44, "tcpsim": 0.30, bucketRuntimeGC: 0.10, bucketRuntimeRes: 0.05, bucketOther: 0.11,
		}
		var sum float64
		for bucket, share := range shares {
			sum += share
			if math.Abs(share-want[bucket]) > 1e-12 {
				t.Errorf("share[%s] = %v, want %v", bucket, share, want[bucket])
			}
		}
		if len(shares) != len(cpuLayers)+3 || math.Abs(sum-1) > 1e-12 {
			t.Errorf("%d buckets summing to %v", len(shares), sum)
		}
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}, 1); err == nil {
		t.Error("truncated profile accepted")
	}
	if _, err := cpuShares(nil); err == nil {
		t.Error("empty profile produced shares")
	}
}
