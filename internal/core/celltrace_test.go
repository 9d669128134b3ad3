package core

import (
	"strings"
	"testing"

	"h3cdn/internal/browser"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

func TestRunCellTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign celltrace sweep; skipped with -short")
	}
	base := CampaignConfig{
		Seed:             2026,
		CorpusConfig:     webgen.Config{NumPages: 6},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	}
	rows := runSweep(t, cellTraceArms, ReportInputs{Campaign: base, Profiles: []string{"stepdown", "umts"}})
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.MeanBps <= 0 {
			t.Fatalf("%s: mean capacity %v", r.Profile, r.MeanBps)
		}
		for arm := 0; arm < 2; arm++ {
			for _, mode := range []browser.Mode{browser.ModeH1, browser.ModeH2, browser.ModeH3} {
				if r.MedianPLT[arm][mode] <= 0 {
					t.Fatalf("%s arm %d: non-positive median PLT for %s", r.Profile, arm, mode)
				}
			}
		}
		if r.Stats[1].BurstDrops == 0 {
			t.Fatalf("%s: bursty arm recorded no GE drops", r.Profile)
		}
		if r.Stats[0].BurstDrops != 0 {
			t.Fatalf("%s: trace-only arm recorded GE drops", r.Profile)
		}
	}
	out := RenderCellTrace(rows)
	for _, want := range []string{"stepdown", "umts", "trace+1% GE", "H3 gain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
