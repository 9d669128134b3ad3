package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/core"
	"h3cdn/internal/har"
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

// TestBuildTrafficConfig covers the -traffic-* usage validation: bad
// knob values and incompatible flag combinations are rejected before
// any simulation work (exit 2), same contract as the impair-flag table
// above. Mutate-one-knob cases start from a valid baseline. Like run(),
// the test passes the built traffic config through
// core.CampaignConfig.Validate, which owns the combination rules.
func TestBuildTrafficConfig(t *testing.T) {
	type args struct {
		tf          trafficFlags
		consecutive bool
		qlogDir     string
		ret         har.Retention
	}
	ok := args{
		tf: trafficFlags{
			enabled:  true,
			users:    256,
			rate:     4,
			duration: 2 * time.Minute,
		},
		ret: har.Retention{Kind: har.RetainAll},
	}
	cases := []struct {
		name    string
		mut     func(*args)
		wantErr string // substring of the error, "" = valid
	}{
		{"defaults", func(a *args) {}, ""},
		{"all-knobs-on", func(a *args) {
			a.tf.usersPerShard = 32
			a.tf.diurnal, a.tf.diurnalPeriod = 0.5, time.Hour
			a.tf.epoch = 30 * time.Second
			a.tf.sessionVisits, a.tf.think = 4, 2*time.Second
			a.tf.zipf, a.tf.ttl, a.tf.maxInFlight = 1.3, 45*time.Second, 128
			a.tf.checkpoint = "ckpt"
		}, ""},
		{"zero-users", func(a *args) { a.tf.users = 0 }, "users"},
		{"negative-users", func(a *args) { a.tf.users = -5 }, "users"},
		{"negative-users-per-shard", func(a *args) { a.tf.usersPerShard = -1 }, "users per shard"},
		{"zero-rate", func(a *args) { a.tf.rate = 0 }, "arrival rate"},
		{"negative-rate", func(a *args) { a.tf.rate = -1 }, "arrival rate"},
		{"nan-rate", func(a *args) { a.tf.rate = math.NaN() }, "arrival rate"},
		{"inf-rate", func(a *args) { a.tf.rate = math.Inf(1) }, "arrival rate"},
		{"zero-duration", func(a *args) { a.tf.duration = 0 }, "duration"},
		{"diurnal-too-big", func(a *args) { a.tf.diurnal = 1 }, "amplitude"},
		{"nan-diurnal", func(a *args) { a.tf.diurnal = math.NaN() }, "amplitude"},
		{"negative-diurnal-period", func(a *args) { a.tf.diurnalPeriod = -time.Hour }, "period"},
		{"negative-epoch", func(a *args) { a.tf.epoch = -time.Second }, "epoch"},
		{"fractional-session-visits", func(a *args) { a.tf.sessionVisits = 0.5 }, "session visits"},
		{"negative-think", func(a *args) { a.tf.think = -time.Second }, "think"},
		{"zipf-at-one", func(a *args) { a.tf.zipf = 1 }, "zipf"},
		{"nan-zipf", func(a *args) { a.tf.zipf = math.NaN() }, "zipf"},
		{"negative-ttl", func(a *args) { a.tf.ttl = -time.Second }, "TTL"},
		{"negative-max-inflight", func(a *args) { a.tf.maxInFlight = -1 }, "in-flight"},
		{"negative-halt-epochs", func(a *args) { a.tf.haltEpochs = -1 }, "-traffic-halt-epochs"},
		{"with-consecutive", func(a *args) { a.consecutive = true }, "Consecutive"},
		{"with-qlog", func(a *args) { a.qlogDir = "qlogs" }, "QlogDir"},
		{"with-sampled-retention", func(a *args) {
			a.ret = har.Retention{Kind: har.RetainSample, Sample: 8}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := ok
			tc.mut(&a)
			cfg, err := buildTrafficConfig(a.tf)
			if err == nil {
				err = core.CampaignConfig{
					Consecutive: a.consecutive, QlogDir: a.qlogDir, Retention: a.ret, Traffic: cfg,
				}.Validate()
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if cfg == nil {
					t.Fatal("valid -traffic flags: want a config, got nil")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending knob %q", err, tc.wantErr)
			}
		})
	}

	// -traffic off: every other knob is ignored, no config, no error.
	off := ok
	off.tf.enabled = false
	off.tf.users = -1
	if cfg, err := buildTrafficConfig(off.tf); cfg != nil || err != nil {
		t.Fatalf("disabled traffic: got (%v, %v), want (nil, nil)", cfg, err)
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

// TestHARRetentionFlag covers the -har-retention values main validates
// via har.ParseRetention before any simulation work; malformed values
// are usage errors (exit 2), same as the impair-flag table above.
func TestHARRetentionFlag(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string // String() round-trip of the parsed policy, "" = error
	}{
		{"all", "all", "all"},
		{"none", "none", "none"},
		{"sample", "sample:64", "sample:64"},
		{"sample-one", "sample:1", "sample:1"},
		{"sample-zero", "sample:0", ""},
		{"sample-negative", "sample:-1", ""},
		{"sample-garbage", "sample:lots", ""},
		{"unknown", "keep", ""},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ret, err := har.ParseRetention(tc.value)
			if tc.want == "" {
				if err == nil {
					t.Fatalf("-har-retention %q: want usage error, got %v", tc.value, ret)
				}
				return
			}
			if err != nil {
				t.Fatalf("-har-retention %q: %v", tc.value, err)
			}
			if got := ret.String(); got != tc.want {
				t.Fatalf("-har-retention %q parsed to %q, want %q", tc.value, got, tc.want)
			}
		})
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
