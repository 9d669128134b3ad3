package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
		{"negative-jitter", []string{"-jitter", "-1ms"}},
		{"zero-trace-scale", []string{"-trace-scale", "0"}},
		{"unreadable-link-trace", []string{"-link-trace", filepath.Join(t.TempDir(), "missing.trace")}},
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
	// A usage error creates no file: -o is opened only after every check.
	created := filepath.Join(t.TempDir(), "ds.json")
	if got := run([]string{"-link-trace", filepath.Join(t.TempDir(), "missing.trace"), "-o", created}); got != 2 {
		t.Fatalf("unreadable -link-trace: exit %d, want 2", got)
	}
	if _, err := os.Stat(created); !os.IsNotExist(err) {
		t.Fatalf("unreadable -link-trace created -o: %v", err)
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

	// -traffic off: a -traffic-* knob, valid or not, is a usage error,
	// and it creates no -o file.
	created := filepath.Join(t.TempDir(), "ds.json")
	for _, args := range [][]string{
		{"-traffic-users", "5", "-traffic-duration", "1s"},
		{"-traffic-users", "-1", "-traffic-rate", "NaN"},
		{"-traffic=false", "-traffic-checkpoint", "ckpt"},
	} {
		if got := run(append(args, "-pages", "2", "-o", created)); got != 2 {
			t.Fatalf("h3cdn-measure %s without -traffic: exit %d, want 2", strings.Join(args, " "), got)
		}
		if _, err := os.Stat(created); !os.IsNotExist(err) {
			t.Fatalf("h3cdn-measure %s without -traffic created -o: %v", strings.Join(args, " "), err)
		}
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

// memstatsNews runs a one-worker campaign over a 2-page corpus with
// -memstats and returns the counts its new-buffers line reports.
func memstatsNews(t *testing.T, probes string) [4]int {
	t.Helper()
	dir := t.TempDir()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	code := run([]string{"-pages", "2", "-probes", probes, "-workers", "1", "-memstats", "-o", filepath.Join(dir, "ds.json")})
	os.Stderr = saved
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("-probes %s: exit %d:\n%s", probes, code, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		var n [4]int
		if _, err := fmt.Sscanf(line, "h3cdn-measure: memstats new-buffers wire=%d tcp=%d quic=%d recv=%d", &n[0], &n[1], &n[2], &n[3]); err == nil {
			return n
		}
	}
	t.Fatalf("-probes %s: no new-buffers line in:\n%s", probes, out)
	return [4]int{}
}

// TestMemstatsNewBuffers checks -memstats' pool-warmth line. Every
// arena it names allocates in a campaign's first shard, so each count
// is positive. A worker keeps its pools across its shards, so doubling
// the shards one worker runs (a second probe) adds at most a quarter
// to any count: the second probe's shards replay out of the first's
// buffers.
func TestMemstatsNewBuffers(t *testing.T) {
	names := [4]string{"wire", "tcp", "quic", "recv"}
	one, two := memstatsNews(t, "1"), memstatsNews(t, "2")
	for i, name := range names {
		if one[i] <= 0 || two[i]*4 > one[i]*5 {
			t.Fatalf("new %s buffers: %d over 6 shards, %d over 12; want a positive count that doubling the shards raises by at most a quarter", name, one[i], two[i])
		}
	}
}
