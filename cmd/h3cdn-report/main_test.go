package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"h3cdn/internal/core"
)

// TestUsageErrorsExit2 runs the command on bad campaign inputs: each
// must exit 2 before any work. The experiment id is unknown, so a case
// that slipped through would exit 1 instead of running a campaign.
func TestUsageErrorsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative-pages", []string{"-pages", "-3"}},
		{"zero-pages", []string{"-pages", "0"}},
		{"negative-probes", []string{"-probes", "-1"}},
		{"negative-burst-len", []string{"-burst-len", "-2"}},
		{"negative-workers", []string{"-workers", "-1"}},
		{"nan-loss", []string{"-loss", "NaN"}},
		{"burst-loss-above-clamp", []string{"-burst-loss", "0.7"}},
		{"negative-jitter", []string{"-jitter", "-1ms"}},
		{"reorder-above-one", []string{"-reorder", "3"}},
		{"outages-out-of-order", []string{"-outage", "10s-11s,2s-4s"}},
		{"zero-trace-scale", []string{"-trace-scale", "0"}},
		{"unreadable-link-trace", []string{"-link-trace", filepath.Join(t.TempDir(), "missing.trace")}},
		{"bad-retention", []string{"-har-retention", "keep"}},
		{"bad-pop-sizes", []string{"-pop-sizes", "0"}},
		{"unknown-flag", []string{"-no-such-flag"}},
		{"negative-pop-rate", []string{"-pop-rate", "-1"}},
		{"pop-users-below-default-sweep", []string{"-pop-users", "3"}},
		{"zero-pop-duration", []string{"-pop-duration", "0"}},
		{"negative-pop-epoch", []string{"-pop-epoch", "-1s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(append(tc.args, "-exp", "nosuch")); got != 2 {
				t.Fatalf("h3cdn-report %s: exit %d, want 2", strings.Join(tc.args, " "), got)
			}
		})
	}
	if got := run([]string{"-pages", "1", "-exp", "nosuch"}); got != 1 {
		t.Fatalf("valid flags with an unknown experiment: exit %d, want 1", got)
	}
	// The plan checks every campaign a selected row declares; celltrace
	// needs a profile to replay.
	for _, traces := range []string{"nosuch", "", ","} {
		if got := run([]string{"-pages", "1", "-exp", "celltrace", "-traces", traces}); got != 2 {
			t.Fatalf("-traces %q: exit %d, want 2", traces, got)
		}
	}
	// A sweep that sets the path's impairment or link trace on its arms
	// is refused a base campaign that sets it already.
	for _, args := range [][]string{
		{"-exp", "lossprofile", "-burst-loss", "0.02"},
		{"-exp", "lossprofile", "-outage", "2s-3s"},
		{"-exp", "celltrace", "-link-trace", "lte"},
		{"-exp", "celltrace", "-jitter", "2ms"},
	} {
		if got := run(append([]string{"-pages", "1"}, args...)); got != 2 {
			t.Fatalf("%s: exit %d, want 2", strings.Join(args, " "), got)
		}
	}
	// A row that reads per-page logs is refused a retention that keeps
	// none.
	if got := run([]string{"-pages", "1", "-exp", "f9", "-har-retention", "none"}); got != 2 {
		t.Fatalf("-exp f9 -har-retention none: exit %d, want 2", got)
	}
}

// TestSelectArtifacts pins how -exp names rows: "all" expands in place
// inside a list, and a repeated id runs once.
func TestSelectArtifacts(t *testing.T) {
	var all []string
	for _, a := range core.Artifacts {
		if a.InAll {
			all = append(all, a.ID)
		}
	}
	notF9 := slices.DeleteFunc(slices.Clone(all), func(id string) bool { return id == "f9" })
	cases := []struct {
		exp  string
		want []string
	}{
		{"all", all},
		{"all,lossprofile", append(slices.Clone(all), "lossprofile")},
		{"phases,all", append([]string{"phases"}, all...)},
		{"f9,all", append([]string{"f9"}, notF9...)},
		{"t2, t2,f8,all,t2", append([]string{"t2", "f8"}, slices.DeleteFunc(slices.Clone(all), func(id string) bool { return id == "t2" || id == "f8" })...)},
	}
	for _, tc := range cases {
		rows, err := selectArtifacts(tc.exp)
		if err != nil {
			t.Fatalf("-exp %s: %v", tc.exp, err)
		}
		var got []string
		for _, a := range rows {
			got = append(got, a.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("-exp %s selects %v, want %v", tc.exp, got, tc.want)
		}
	}
	if _, err := selectArtifacts("all,nosuch"); err == nil {
		t.Error("-exp all,nosuch accepted")
	}
}
