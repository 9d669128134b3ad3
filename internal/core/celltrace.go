package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"h3cdn/internal/browser"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
)

// CellTraceRow is one cellular-trace profile's protocol comparison: the
// same campaign replayed over the profile's variable downlink in all
// three browsing modes, once with only the trace's capacity variation
// and once with Gilbert–Elliott bursty loss layered on top — the
// paper's lossy-cellular condition, with capacity realism the fixed
// access-link experiments lack.
type CellTraceRow struct {
	Profile  string
	MeanBps  float64 // time-weighted trace capacity
	DeadTime float64 // fraction of the period at zero capacity
	// MedianPLT[arm][mode]: arm 0 = trace only, arm 1 = trace + GE loss.
	MedianPLT [2]map[browser.Mode]time.Duration
	// Fig9[arm] is the reduction-vs-resources fit (H2 − H3) per arm.
	Fig9 [2]Fig9Series
	// Stats[arm] carries each arm's execution counters (H3-mode runs).
	Stats [2]CampaignStats
}

// cellTraceLoss is the bursty arm's added average loss (mean burst 4),
// matching the impaired-golden campaign's regime.
const cellTraceLoss = 0.01

// cellTraceArms replay the base campaign over each named synthetic
// trace profile (traces.Profile) in modes {H1, H2, H3}, in two arms:
// capacity variation alone, then capacity plus Gilbert–Elliott loss.
// The base config supplies corpus, vantages, and probes; Modes,
// LinkTrace, and Impairment are set per arm, so a base campaign that
// sets either path field is refused rather than silently replaced.
func cellTraceArms(in ReportInputs) ([]Arm, []CellTraceRow, error) {
	switch {
	case len(in.Profiles) == 0:
		return nil, nil, errors.New("no trace profile to replay")
	case in.Campaign.LinkTrace != nil:
		return nil, nil, errors.New("the sweep's arms set the link trace, which the base campaign sets already (-link-trace)")
	case in.Campaign.Impairment != nil:
		return nil, nil, errImpaired
	}
	rows := make([]CellTraceRow, len(in.Profiles))
	var arms []Arm
	for i, name := range in.Profiles {
		tl, err := traces.Profile(name)
		if err != nil {
			return nil, nil, err
		}
		row := &rows[i]
		*row = CellTraceRow{Profile: name, MeanBps: tl.MeanBps()}
		var dead time.Duration
		for e := int64(0); e < int64(tl.Epochs()); e++ {
			if tl.EpochBps(e) == 0 {
				dead += tl.Period() / time.Duration(tl.Epochs())
			}
		}
		row.DeadTime = float64(dead) / float64(tl.Period())
		cfg := in.Campaign
		cfg.Modes = []browser.Mode{browser.ModeH1, browser.ModeH2, browser.ModeH3}
		cfg.LinkTrace = tl
		for arm := range 2 {
			if arm == 1 {
				ge := simnet.GilbertElliott(cellTraceLoss, 4)
				cfg.Impairment = &ge
			}
			arms = append(arms, Arm{cfg, func(d *Dataset) (err error) {
				row.MedianPLT[arm], row.Stats[arm] = medianPLTByMode(d), d.Stats
				if row.Fig9[arm], err = ComputeFigure9Series(d, cellTraceLoss*float64(arm)); err != nil {
					return fmt.Errorf("%s arm %d: %w", name, arm, err)
				}
				return nil
			}})
		}
	}
	return arms, rows, nil
}

// medianPLTByMode folds a dataset into one median PLT per browsing mode
// (Dataset.PLTMedianMs: exact over retained pages, else from sketches).
func medianPLTByMode(ds *Dataset) map[browser.Mode]time.Duration {
	out := make(map[browser.Mode]time.Duration, len(ds.Logs))
	for mode := range ds.Logs {
		ms, _, _ := ds.PLTMedianMs(mode)
		out[mode] = time.Duration(ms * float64(time.Millisecond))
	}
	return out
}

// RenderCellTrace prints the cellular-trace comparison: per profile, the
// median PLT of H1/H2/H3 in both arms plus the H3-advantage fit.
func RenderCellTrace(rows []CellTraceRow) string {
	var sb strings.Builder
	sb.WriteString("Cellular-trace replay: median PLT by protocol over variable downlinks\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "profile\tmean link\tdead\tarm\tH1 (ms)\tH2 (ms)\tH3 (ms)\tH3 gain vs H2 (ms)\tfit slope")
	for _, r := range rows {
		for arm := 0; arm < 2; arm++ {
			label := "trace"
			if arm == 1 {
				label = fmt.Sprintf("trace+%.0f%% GE", 100*cellTraceLoss)
			}
			m := r.MedianPLT[arm]
			h1 := msOf(m[browser.ModeH1])
			h2 := msOf(m[browser.ModeH2])
			h3 := msOf(m[browser.ModeH3])
			fmt.Fprintf(w, "%s\t%.1f Mbit/s\t%.0f%%\t%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
				r.Profile, r.MeanBps/1e6, 100*r.DeadTime, label,
				h1, h2, h3, h2-h3, r.Fig9[arm].Slope)
		}
	}
	_ = w.Flush()
	sb.WriteString("capacity fades alone compress protocol gaps; adding bursty loss is where H3's recovery advantage re-opens them\n")
	return sb.String()
}
