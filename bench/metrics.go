package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark emits. The tables below are
// the single list of names: BENCHMARK.json repeats them for the driver
// and bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// End-to-end metrics, per workload. The time and set-up bounds are the
// widest the driver allows because this sandbox's noisy periods move
// them by 10–20 %; the allocation bound is at least three times
// population's spread across seeds (3–6.5 %). The heap metric is per visit because population's
// seed decides how many sessions arrive in its window (1 920 to 2 393
// visits across ten seeds) and the live heap follows that load; what is
// left, 5–10 % across seeds, is the error of sampling a sawtooth at sixty
// GC cycles a repeat (see README.md, "Measured spreads").
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"visits_per_sec", "1/s", "higher", 0.25},
	{"cpu_ms_per_visit", "ms", "lower", 0.25},
	{"alloc_kb_per_visit", "KB", "lower", 0.20},
	{"live_heap_kb_per_visit", "KB", "lower", 0.25},
}

// Per-layer metrics of the traced pass that depend on the workload.
var workloadLayerDefs = []metricDef{
	// Source 1: CPU profile of one extra repeat, bucketed by package.
	{name: "simnet.cpu_share", unit: "ratio", better: "lower"},
	{name: "tcpsim.cpu_share", unit: "ratio", better: "lower"},
	{name: "quicsim.cpu_share", unit: "ratio", better: "lower"},
	{name: "tlssim.cpu_share", unit: "ratio", better: "lower"},
	{name: "httpsim.cpu_share", unit: "ratio", better: "lower"},
	{name: "cdn.cpu_share", unit: "ratio", better: "lower"},
	{name: "browser.cpu_share", unit: "ratio", better: "lower"},
	{name: "core.cpu_share", unit: "ratio", better: "lower"},
	{name: "sketch.cpu_share", unit: "ratio", better: "lower"},
	{name: "traffic.cpu_share", unit: "ratio", better: "lower"},
	{name: "bufpool.cpu_share", unit: "ratio", better: "lower"},
	{name: "other.cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.other_cpu_share", unit: "ratio", better: "lower"},
	{name: "trace_overhead_ratio", unit: "ratio", better: "lower"},

	// Source 2: counters of the timed repeats' datasets.
	{name: "failed_share", unit: "ratio", better: "lower"},
	{name: "simnet.events_per_visit", unit: "count", better: "lower"},
	{name: "simnet.events_per_sec", unit: "1/s", better: "higher"},
	{name: "simnet.drops_per_visit", unit: "count", better: "lower"},
	{name: "tcpsim.rtx_per_visit", unit: "count", better: "lower"},
	{name: "tcpsim.rto_per_visit", unit: "count", better: "lower"},
	{name: "quicsim.pto_per_visit", unit: "count", better: "lower"},
	{name: "quicsim.lost_per_visit", unit: "count", better: "lower"},
	{name: "browser.retries_per_visit", unit: "count", better: "lower"},
	{name: "browser.reused_conn_share", unit: "ratio", better: "higher"},
	{name: "tlssim.resumed_conn_share", unit: "ratio", better: "higher"},
	{name: "cdn.edge_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cdn.stampedes_per_visit", unit: "count", better: "lower"},
	{name: "core.worker_utilization", unit: "ratio", better: "higher"},
	{name: "core.gc_cycles", unit: "count", better: "lower"},
	{name: "live_heap_peak_mb", unit: "MB", better: "lower"},
	{name: "core.heap_inuse_peak_mb", unit: "MB", better: "lower"},
	{name: "browser.plt_median_ms_h2", unit: "ms", better: "lower"},
	{name: "browser.plt_median_ms_h3", unit: "ms", better: "lower"},

	// Source 3: the benchmark's own single-threaded visit loop.
	{name: "browser.visit_ms_p50_h2", unit: "ms", better: "lower"},
	{name: "browser.visit_ms_tail_h2", unit: "ms", better: "lower"},
	{name: "browser.visit_ms_p50_h3", unit: "ms", better: "lower"},
	{name: "browser.visit_ms_tail_h3", unit: "ms", better: "lower"},
	{name: "browser.warm_visit_ms_p50", unit: "ms", better: "lower"},
	{name: "browser.allocs_per_visit", unit: "count", better: "lower"},
	{name: "simnet.packets_per_visit", unit: "count", better: "lower"},
	{name: "simnet.bytes_per_visit", unit: "B", better: "lower"},
	{name: "core.new_universe_us", unit: "us", better: "lower"},
	{name: "core.universe_close_us", unit: "us", better: "lower"},
	{name: "sketch.fold_us_per_visit", unit: "us", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "core.dataset_encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "core.analysis_ms", unit: "ms", better: "lower"},
}

// Source 4: workload-independent layer kernels.
var kernelDefs = []metricDef{
	{name: "simnet.sched_ns_per_event", unit: "ns", better: "lower"},
	{name: "simnet.timer_reset_ns", unit: "ns", better: "lower"},
	{name: "simnet.send_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "simnet.send_impaired_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "simnet.send_trace_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "simnet.send_allocs_per_pkt", unit: "count", better: "lower"},

	{name: "tcpsim.bulk_ns_per_kb", unit: "ns", better: "lower"},
	{name: "tcpsim.bulk_events_per_kb", unit: "count", better: "lower"},
	{name: "tcpsim.bulk_lossy_ns_per_kb", unit: "ns", better: "lower"},
	{name: "tcpsim.bulk_lossy_events_per_kb", unit: "count", better: "lower"},
	{name: "tcpsim.bulk_allocs_per_mb", unit: "count", better: "lower"},

	{name: "quicsim.bulk_ns_per_kb", unit: "ns", better: "lower"},
	{name: "quicsim.bulk_events_per_kb", unit: "count", better: "lower"},
	{name: "quicsim.bulk_lossy_ns_per_kb", unit: "ns", better: "lower"},
	{name: "quicsim.bulk_lossy_events_per_kb", unit: "count", better: "lower"},
	{name: "quicsim.streams16_ns_per_kb", unit: "ns", better: "lower"},
	{name: "quicsim.bulk_allocs_per_mb", unit: "count", better: "lower"},
	{name: "quicsim.handshake_us", unit: "us", better: "lower"},
	{name: "quicsim.zero_rtt_us", unit: "us", better: "lower"},

	{name: "tlssim.handshake_us", unit: "us", better: "lower"},
	{name: "tlssim.resume_us", unit: "us", better: "lower"},
	{name: "tlssim.handshake_events", unit: "count", better: "lower"},

	{name: "httpsim.h1_us_per_req", unit: "us", better: "lower"},
	{name: "httpsim.h2_us_per_req", unit: "us", better: "lower"},
	{name: "httpsim.h3_us_per_req", unit: "us", better: "lower"},
	{name: "httpsim.h2_events_per_req", unit: "count", better: "lower"},
	{name: "httpsim.h3_events_per_req", unit: "count", better: "lower"},
	{name: "httpsim.h2_allocs_per_req", unit: "count", better: "lower"},
	{name: "httpsim.h3_allocs_per_req", unit: "count", better: "lower"},

	{name: "cdn.lru_hit_ns", unit: "ns", better: "lower"},
	{name: "cdn.lru_insert_evict_ns", unit: "ns", better: "lower"},
	{name: "cdn.edge_hit_us_per_req", unit: "us", better: "lower"},
	{name: "cdn.edge_miss_us_per_req", unit: "us", better: "lower"},
	{name: "cdn.edge_ttl_stampede_us_per_req", unit: "us", better: "lower"},

	{name: "sketch.fold_ns", unit: "ns", better: "lower"},
	{name: "sketch.merge_us", unit: "us", better: "lower"},

	{name: "webgen.generate_ms_per_kpage", unit: "ms", better: "lower"},
	{name: "core.topology_ms_per_kpage", unit: "ms", better: "lower"},
}

// value is one reported number. Min/Max/N are set for end-to-end
// metrics, whose Value is the median of N timed repeats; tail metrics
// set N to their sample count and Note to the percentile picked.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// metricSet collects values against a list of definitions and refuses
// names the list does not know, names set twice, and non-finite values —
// the "every name exactly once, every metric finite" output invariant.
// The first refusal sticks (as a bufio.Writer's first error does), so
// emitters need not check each call; complete reports it.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]value
	err    error
}

func newMetricSet(defs ...[]metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, values: map[string]value{}}
	for _, list := range defs {
		for _, d := range list {
			ms.defs[d.name] = d
		}
	}
	return ms
}

func (ms *metricSet) set(name string, v float64) { ms.setValue(name, value{Value: v}) }

func (ms *metricSet) setValue(name string, v value) {
	d, ok := ms.defs[name]
	_, dup := ms.values[name]
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("metric %q is not defined", name)
	case dup:
		err = fmt.Errorf("metric %q emitted twice", name)
	case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
		err = fmt.Errorf("metric %q is not finite (%v)", name, v.Value)
	}
	if err != nil {
		if ms.err == nil {
			ms.err = err
		}
		return
	}
	v.Unit = d.unit
	ms.values[name] = v
}

// complete reports the first refused emission, or failing that the
// defined metrics that were never set.
func (ms *metricSet) complete() error {
	if ms.err != nil {
		return ms.err
	}
	var missing []string
	for name := range ms.defs {
		if _, ok := ms.values[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics never emitted: %s", strings.Join(missing, ", "))
	}
	return nil
}

// median returns the middle of xs (mean of the middle two when even).
// xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPermille are the candidates for "the highest percentile the sample
// supports", in thousandths so rank arithmetic stays in integers.
var tailPermille = []int{500, 750, 900, 950, 990, 999}

// tailPick returns the highest candidate percentile (in thousandths)
// with at least ten samples beyond it, and that percentile of xs by
// nearest rank. With fewer than twenty samples no candidate qualifies
// and it reports the median.
func tailPick(xs []float64) (permille int, v float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tailPermille[0], math.NaN()
	}
	rank := func(pm int) int { return (n*pm + 999) / 1000 } // ceil(n·p), 1-based
	permille = tailPermille[0]
	for _, pm := range tailPermille {
		if n-rank(pm) >= 10 {
			permille = pm
		}
	}
	return permille, s[max(rank(permille), 1)-1]
}
