package main

import (
	"strings"
	"testing"
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
		{"negative-burstlen", []string{"-burstlen", "-2"}},
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
}
