package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLoadBaselineRotate loads a baseline after a re-recording: one
// record per benchmark, grouped by package.
func TestLoadBaselineRotate(t *testing.T) {
	base, err := loadBaseline(filepath.Join("testdata", "rotate.json"))
	if err != nil {
		t.Fatal(err)
	}
	names, byPkg := selectGated(&base)
	if want := []string{"BenchmarkAlpha", "BenchmarkBeta"}; len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("gated = %v, want %v", names, want)
	}
	if !byPkg["."]["BenchmarkAlpha"] || !byPkg["./internal/core"]["BenchmarkBeta"] {
		t.Fatalf("byPkg = %v", byPkg)
	}
	if e := base.Benchmarks["BenchmarkBeta"]; e.NsOp != 1000 || e.BOp != 128 || e.AllocsOp != 8 {
		t.Fatalf("record = %+v", e.metrics)
	}
}

func TestLoadBaselineGateOnly(t *testing.T) {
	base, err := loadBaseline(filepath.Join("testdata", "gate_only.json"))
	if err != nil {
		t.Fatal(err)
	}
	names, _ := selectGated(&base)
	if len(names) != 2 {
		t.Fatalf("gated = %v, want both informational entries measured", names)
	}
	if len(base.Gates) != 1 || base.Gates[0].Type != "min_efficiency" {
		t.Fatalf("gates = %+v", base.Gates)
	}
	if runtime.NumCPU() == 1 {
		t.Skip("efficiency gates skip on single-core machines")
	}
	measured := map[string]metrics{
		"BenchmarkScale/workers=1": {NsOp: 1000, EventsPerSec: 1000},
		"BenchmarkScale/workers=2": {NsOp: 600, EventsPerSec: 1700},
	}
	if !checkGate(base.Gates[0], measured) {
		t.Fatal("gate with floor 0.5 at workers=1 must pass on these measurements")
	}
	// The gate takes the best speedup at any worker count ≥ ideal
	// (here 1.7 at workers=2), so only a floor above that can fail.
	strict := base.Gates[0]
	strict.Min = 2.0
	if checkGate(strict, measured) {
		t.Fatal("gate with floor 2.0 must fail (best speedup 1.7)")
	}
}

func TestCompareEntrySmokeGatesAllocsOnly(t *testing.T) {
	want := metrics{NsOp: 1000, BOp: 500, AllocsOp: 100}
	cases := []struct {
		name    string
		got     metrics
		smoke   bool
		violate string // "" = pass
	}{
		{"identical", want, false, ""},
		{"within-bands", metrics{NsOp: 1300, BOp: 600, AllocsOp: 101}, false, ""},
		{"allocs-regression", metrics{NsOp: 1000, BOp: 500, AllocsOp: 120}, false, "allocs/op"},
		{"ns-regression", metrics{NsOp: 1500, BOp: 500, AllocsOp: 100}, false, "ns/op"},
		{"bop-regression", metrics{NsOp: 1000, BOp: 800, AllocsOp: 100}, false, "B/op"},
		// -smoke: only allocs/op gates; wild ns/op and B/op pass, and
		// the allocs band widens to 15%.
		{"smoke-ignores-ns-bop", metrics{NsOp: 9000, BOp: 9000, AllocsOp: 110}, true, ""},
		{"smoke-allocs-regression", metrics{NsOp: 1000, BOp: 500, AllocsOp: 120}, true, "allocs/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			band := 1.02
			if tc.smoke {
				band = 1.15
			}
			reasons := compareEntry(want, tc.got, tc.smoke, 0.40, band)
			if tc.violate == "" {
				if len(reasons) != 0 {
					t.Fatalf("want pass, got %v", reasons)
				}
				return
			}
			if len(reasons) == 0 {
				t.Fatalf("want %s violation, got pass", tc.violate)
			}
			if !strings.Contains(reasons[0], tc.violate) {
				t.Fatalf("reasons %v do not name %s", reasons, tc.violate)
			}
		})
	}
}

// TestZeroAllocBaselineStaysExact pins the property the scheduler gates
// rely on: a zero allocs/op baseline admits zero and only zero,
// whatever the band (0 × band = 0).
func TestZeroAllocBaselineStaysExact(t *testing.T) {
	want := metrics{NsOp: 50, BOp: 0, AllocsOp: 0}
	if r := compareEntry(want, metrics{NsOp: 50, AllocsOp: 0}, true, 0.40, 1.15); len(r) != 0 {
		t.Fatalf("zero vs zero: %v", r)
	}
	if r := compareEntry(want, metrics{NsOp: 50, AllocsOp: 1}, true, 0.40, 1.15); len(r) == 0 {
		t.Fatal("1 alloc against a zero baseline must fail even in -smoke")
	}
}

func TestRepoBaselinesValidate(t *testing.T) {
	// The repo's own baselines must load and name benchmarks only.
	for _, path := range []string{"../../BENCH_baseline.json", "../../BENCH_scaling.json"} {
		base, err := loadBaseline(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if names, _ := selectGated(&base); len(names) == 0 {
			t.Fatalf("%s: no gated benchmarks", path)
		}
	}
}

func TestRSSGrowthGate(t *testing.T) {
	g := gateSpec{Type: "max_rss_growth", Benchmark: "BenchmarkCampaignMemory", Max: 2.0}
	measured := map[string]metrics{
		"BenchmarkCampaignMemory/pages=96":  {NsOp: 1e9, PeakRSSMB: 200},
		"BenchmarkCampaignMemory/pages=768": {NsOp: 8e9, PeakRSSMB: 350},
		"BenchmarkOther/pages=5000":         {NsOp: 1e9, PeakRSSMB: 9000}, // ignored
	}
	if !checkGate(g, measured) {
		t.Fatal("1.75x growth under a 2.0x ceiling must pass")
	}
	measured["BenchmarkCampaignMemory/pages=768"] = metrics{NsOp: 8e9, PeakRSSMB: 500}
	if checkGate(g, measured) {
		t.Fatal("2.5x growth over a 2.0x ceiling must fail")
	}
	// Scale-agnostic: the same gate binds whatever pages=N pair ran.
	record := map[string]metrics{
		"BenchmarkCampaignMemory/pages=1000":  {NsOp: 1e9, PeakRSSMB: 300},
		"BenchmarkCampaignMemory/pages=10000": {NsOp: 9e9, PeakRSSMB: 450},
	}
	if !checkGate(g, record) {
		t.Fatal("record-scale pair within ceiling must pass")
	}
	// A single measured scale cannot prove sub-linearity: fail loudly.
	if checkGate(g, map[string]metrics{
		"BenchmarkCampaignMemory/pages=96": {NsOp: 1e9, PeakRSSMB: 200},
	}) {
		t.Fatal("one measurement must fail the growth gate")
	}

	// A custom scale param selects <param>=N sub-benchmarks instead of
	// pages=N (the population-traffic gate scales by visit count).
	pop := gateSpec{Type: "max_rss_growth", Benchmark: "BenchmarkPopulationCampaign", Param: "visits", Max: 2.0}
	byVisits := map[string]metrics{
		"BenchmarkPopulationCampaign/visits=1200": {NsOp: 1e9, PeakRSSMB: 150},
		"BenchmarkPopulationCampaign/visits=9600": {NsOp: 8e9, PeakRSSMB: 220},
	}
	if !checkGate(pop, byVisits) {
		t.Fatal("visits-keyed growth under the ceiling must pass")
	}
	byVisits["BenchmarkPopulationCampaign/visits=9600"] = metrics{NsOp: 8e9, PeakRSSMB: 500}
	if checkGate(pop, byVisits) {
		t.Fatal("visits-keyed growth over the ceiling must fail")
	}
	// The param must not silently fall back to pages=N rows.
	if checkGate(pop, measured) {
		t.Fatal("visits param must ignore pages=N measurements")
	}
}

func TestGateSpecValidation(t *testing.T) {
	bad := baselineFile{Gates: []gateSpec{{Type: "max_rss_growth", Benchmark: "BenchmarkX"}}}
	if bad.validate() == nil {
		t.Fatal("max_rss_growth without a ceiling must not validate")
	}
	freeForm := baselineFile{Benchmarks: map[string]baselineEntry{"campaign_wall_clock": {}}}
	if freeForm.validate() == nil {
		t.Fatal("an entry that names no benchmark must not validate")
	}
	good := baselineFile{Gates: []gateSpec{{Type: "max_rss_growth", Benchmark: "BenchmarkX", Max: 2}}}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterOnly(t *testing.T) {
	base, err := loadBaseline(filepath.Join("testdata", "rotate.json"))
	if err != nil {
		t.Fatal(err)
	}
	names, byPkg := selectGated(&base)
	names, byPkg = filterOnly(names, byPkg, "Alpha")
	if len(names) != 1 || names[0] != "BenchmarkAlpha" {
		t.Fatalf("filtered names = %v", names)
	}
	if len(byPkg) != 1 || !byPkg["."]["BenchmarkAlpha"] {
		t.Fatalf("byPkg = %v (packages without surviving roots must drop)", byPkg)
	}
	// Sub-benchmark names keep their root in byPkg.
	subNames := []string{"BenchmarkMem/pages=96", "BenchmarkMem/pages=768", "BenchmarkScale/workers=1"}
	subPkg := map[string]map[string]bool{"./internal/core": {"BenchmarkMem": true, "BenchmarkScale": true}}
	gotNames, gotPkg := filterOnly(subNames, subPkg, "Mem")
	if len(gotNames) != 2 {
		t.Fatalf("sub-benchmark filter names = %v", gotNames)
	}
	if len(gotPkg["./internal/core"]) != 1 || !gotPkg["./internal/core"]["BenchmarkMem"] {
		t.Fatalf("sub-benchmark filter byPkg = %v", gotPkg)
	}
}
