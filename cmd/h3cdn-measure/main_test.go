package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateImpairFlags(t *testing.T) {
	type args struct {
		burstLoss    float64
		burstLen     float64
		jitter       time.Duration
		reorder      float64
		reorderDelay time.Duration
		traceScale   float64
	}
	ok := args{burstLen: 4, traceScale: 1}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string // substring of the error, "" = valid
	}{
		{"defaults", func(a *args) {}, ""},
		{"all-knobs-on", func(a *args) {
			a.burstLoss, a.jitter, a.reorder, a.reorderDelay = 0.02, 2*time.Millisecond, 0.1, 5*time.Millisecond
		}, ""},
		{"negative-burst-loss", func(a *args) { a.burstLoss = -0.01 }, "-burst-loss"},
		{"nan-burst-loss", func(a *args) { a.burstLoss = math.NaN() }, "-burst-loss"},
		{"burst-loss-at-clamp", func(a *args) { a.burstLoss = 0.5 }, ""},
		{"burst-loss-above-clamp", func(a *args) { a.burstLoss = 0.7 }, "-burst-loss"},
		{"burst-len-one", func(a *args) { a.burstLen = 1 }, ""},
		{"burst-len-below-one", func(a *args) { a.burstLen = 0.5 }, "-burst-len"},
		{"negative-burst-len", func(a *args) { a.burstLen = -2 }, "-burst-len"},
		{"nan-burst-len", func(a *args) { a.burstLen = math.NaN() }, "-burst-len"},
		{"inf-burst-len", func(a *args) { a.burstLen = math.Inf(1) }, "-burst-len"},
		{"negative-jitter", func(a *args) { a.jitter = -time.Millisecond }, "-jitter"},
		{"negative-reorder", func(a *args) { a.reorder = -0.5 }, "-reorder"},
		{"nan-reorder", func(a *args) { a.reorder = math.NaN() }, "-reorder"},
		{"certain-reorder", func(a *args) { a.reorder = 1 }, ""},
		{"reorder-above-one", func(a *args) { a.reorder = 3 }, "-reorder"},
		{"negative-reorder-delay", func(a *args) { a.reorderDelay = -time.Second }, "-reorder-delay"},
		{"zero-trace-scale", func(a *args) { a.traceScale = 0 }, "-trace-scale"},
		{"negative-trace-scale", func(a *args) { a.traceScale = -2 }, "-trace-scale"},
		{"nan-trace-scale", func(a *args) { a.traceScale = math.NaN() }, "-trace-scale"},
		{"inf-trace-scale", func(a *args) { a.traceScale = math.Inf(1) }, "-trace-scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mut(&a)
			err := validateImpairFlags(a.burstLoss, a.burstLen, a.jitter, a.reorder, a.reorderDelay, a.traceScale)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

func TestBuildLinkTrace(t *testing.T) {
	if tl, err := buildLinkTrace("", 1); tl != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", tl, err)
	}
	tl, err := buildLinkTrace("lte", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Name() != "synthetic:lte" {
		t.Fatalf("name = %q", tl.Name())
	}
	half, err := buildLinkTrace("lte", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := half.MeanBps(), tl.MeanBps()/2; math.Abs(got-want) > 1 {
		t.Fatalf("scaled mean %v, want %v", got, want)
	}

	// Mahimahi file path.
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.trace")
	if err := os.WriteFile(path, []byte("0\n10\n20\n30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ftl, err := buildLinkTrace(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ftl.Name() != "cell.trace" || ftl.MeanBps() <= 0 {
		t.Fatalf("file trace: name %q mean %v", ftl.Name(), ftl.MeanBps())
	}

	if _, err := buildLinkTrace(filepath.Join(dir, "missing.trace"), 1); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not-a-timestamp\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildLinkTrace(bad, 1); err == nil {
		t.Fatal("malformed file: want parse error")
	}
}

// TestUsageErrorsExit2 runs the command on bad campaign inputs: each
// must exit 2 before any work. The -o path cannot be created, so a case
// that slipped through would exit 1 instead of running a campaign.
func TestUsageErrorsExit2(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "ds.json")
	cases := []struct {
		name string
		args []string
	}{
		{"negative-pages", []string{"-pages", "-3"}},
		{"zero-pages", []string{"-pages", "0"}},
		{"negative-probes", []string{"-probes", "-1"}},
		{"negative-workers", []string{"-workers", "-1"}},
		{"nan-loss", []string{"-loss", "NaN"}},
		{"total-loss", []string{"-loss", "1.5"}},
		{"reorder-above-one", []string{"-reorder", "3"}},
		{"negative-burst-len", []string{"-burst-len", "-2"}},
		{"burst-loss-above-clamp", []string{"-burst-loss", "0.7"}},
		{"bad-retention", []string{"-har-retention", "sample:0"}},
		{"outages-out-of-order", []string{"-outage", "10s-11s,2s-4s"}},
		{"outages-overlapping", []string{"-outage", "1s-3s,2s-4s"}},
		{"unknown-flag", []string{"-no-such-flag"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(append(tc.args, "-o", out)); got != 2 {
				t.Fatalf("h3cdn-measure %s: exit %d, want 2", strings.Join(tc.args, " "), got)
			}
		})
	}
	if got := run([]string{"-pages", "1", "-o", out}); got != 1 {
		t.Fatalf("valid flags with an uncreatable -o: exit %d, want 1", got)
	}
}

// runToOutput runs the command on args over a 1-page corpus with an -o
// path that cannot be created: a usage error exits 2 before any work,
// and valid flags get as far as the -o path and exit 1, so no case runs
// a campaign.
func runToOutput(t *testing.T, args ...string) int {
	out := filepath.Join(t.TempDir(), "missing", "ds.json")
	return run(append(args, "-pages", "1", "-o", out))
}

// TestBuildTrafficConfig covers how the command builds a campaign's
// traffic config from the -traffic-* flags: bad knob values and
// incompatible flag combinations exit 2 before any work, valid ones
// pass. traffic.Config.Validate owns the knob rules and
// core.CampaignConfig.Validate the combination rules.
func TestBuildTrafficConfig(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		valid bool
	}{
		{"defaults", nil, true},
		{"all-knobs-on", []string{
			"-traffic-users-per-shard", "32", "-traffic-diurnal", "0.5", "-traffic-diurnal-period", "1h",
			"-traffic-epoch", "30s", "-traffic-session-visits", "4", "-traffic-think", "2s",
			"-traffic-zipf", "1.3", "-traffic-ttl", "45s", "-traffic-max-inflight", "128",
			"-traffic-checkpoint", "ckpt",
		}, true},
		{"zero-users", []string{"-traffic-users", "0"}, false},
		{"negative-users", []string{"-traffic-users", "-5"}, false},
		{"negative-users-per-shard", []string{"-traffic-users-per-shard", "-1"}, false},
		{"zero-rate", []string{"-traffic-rate", "0"}, false},
		{"negative-rate", []string{"-traffic-rate", "-1"}, false},
		{"nan-rate", []string{"-traffic-rate", "NaN"}, false},
		{"inf-rate", []string{"-traffic-rate", "Inf"}, false},
		{"zero-duration", []string{"-traffic-duration", "0"}, false},
		{"diurnal-too-big", []string{"-traffic-diurnal", "1"}, false},
		{"nan-diurnal", []string{"-traffic-diurnal", "NaN"}, false},
		{"negative-diurnal-period", []string{"-traffic-diurnal-period", "-1h"}, false},
		{"negative-epoch", []string{"-traffic-epoch", "-1s"}, false},
		{"fractional-session-visits", []string{"-traffic-session-visits", "0.5"}, false},
		{"negative-think", []string{"-traffic-think", "-1s"}, false},
		{"zipf-at-one", []string{"-traffic-zipf", "1"}, false},
		{"nan-zipf", []string{"-traffic-zipf", "NaN"}, false},
		{"negative-ttl", []string{"-traffic-ttl", "-1s"}, false},
		{"negative-max-inflight", []string{"-traffic-max-inflight", "-1"}, false},
		{"negative-halt-epochs", []string{"-traffic-halt-epochs", "-1"}, false},
		{"with-consecutive", []string{"-consecutive"}, false},
		{"with-qlog", []string{"-qlog", "qlogs"}, false},
		{"with-sampled-retention", []string{"-har-retention", "sample:8"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := 2
			if tc.valid {
				want = 1
			}
			if got := runToOutput(t, append([]string{"-traffic"}, tc.args...)...); got != want {
				t.Fatalf("h3cdn-measure -traffic %s: exit %d, want %d", strings.Join(tc.args, " "), got, want)
			}
		})
	}

	// -traffic off: every other knob is ignored.
	if got := runToOutput(t, "-traffic-users", "-1", "-traffic-rate", "NaN"); got != 1 {
		t.Fatalf("-traffic-* knobs without -traffic: exit %d, want 1", got)
	}
}

// TestHARRetentionFlag covers the -har-retention values: a malformed one
// fails flag parsing (exit 2) before any work, a valid one passes.
// har's TestParseRetention pins what each value parses to.
func TestHARRetentionFlag(t *testing.T) {
	cases := []struct {
		name  string
		value string
		valid bool
	}{
		{"all", "all", true},
		{"none", "none", true},
		{"sample", "sample:64", true},
		{"sample-one", "sample:1", true},
		{"sample-zero", "sample:0", false},
		{"sample-negative", "sample:-1", false},
		{"sample-garbage", "sample:lots", false},
		{"unknown", "keep", false},
		{"empty", "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := 2
			if tc.valid {
				want = 1
			}
			if got := runToOutput(t, "-har-retention", tc.value); got != want {
				t.Fatalf("-har-retention %q: exit %d, want %d", tc.value, got, want)
			}
		})
	}
}

// FuzzParseOutages: an accepted -outage spec yields windows in time
// order, each 0 ≤ Start < End and none overlapping the one before.
func FuzzParseOutages(f *testing.F) {
	for _, s := range []string{"", "2s-4s", "2s-4s,10s-11s", "10s-11s,2s-4s", "1s-3s,2s-4s", "4s-2s", "0-1ms", "+1s-2s", " 1s-2s , 2s-3s ", "1s--2s", "x-y", "1s"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		windows, err := parseOutages(spec)
		if err != nil {
			return
		}
		for i, w := range windows {
			if w.Start < 0 || w.Start >= w.End {
				t.Fatalf("parseOutages(%q): window %d is [%v, %v)", spec, i, w.Start, w.End)
			}
			if i > 0 && w.Start < windows[i-1].End {
				t.Fatalf("parseOutages(%q): window %d starts at %v, before window %d ends at %v", spec, i, w.Start, i-1, windows[i-1].End)
			}
		}
	})
}
