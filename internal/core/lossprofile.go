package core

import (
	"errors"
	"fmt"
	"strings"

	"h3cdn/internal/simnet"
)

// LossProfileRow compares the i.i.d. and bursty loss arms at one added
// loss rate. Both arms add the same long-run average loss on top of the
// ambient baseline; the bursty arm clusters it into Gilbert–Elliott
// bursts of mean length MeanBurst instead of spreading it uniformly.
type LossProfileRow struct {
	AddedLoss float64
	MeanBurst float64
	// IID / Bursty are the Figure-9 fits of each arm (H3's PLT
	// reduction vs CDN resources).
	IID    Fig9Series
	Bursty Fig9Series
	// IIDStats / BurstyStats carry each arm's execution counters —
	// recovery activity is where the two regimes differ mechanically.
	IIDStats    CampaignStats
	BurstyStats CampaignStats
}

// lossProfileArms are the loss-profile sweep's arms: at each Figure-9
// added loss rate, an i.i.d. Bernoulli arm (the §VI-E Traffic Control
// knob, Figure 9's own campaign) and a bursty Gilbert–Elliott arm of
// mean burst in.BurstLen at the matched average rate. With no added
// loss the two arms are one baseline campaign. The bursty arms set the
// path's Impairment, so a base campaign that sets one is refused rather
// than silently replaced.
func lossProfileArms(in ReportInputs) ([]Arm, []LossProfileRow, error) {
	if in.Campaign.Impairment != nil {
		return nil, nil, errImpaired
	}
	rows := make([]LossProfileRow, len(Figure9Losses()))
	var arms []Arm
	for i, added := range Figure9Losses() {
		row := &rows[i]
		*row = LossProfileRow{AddedLoss: added, MeanBurst: in.BurstLen}
		iid := figure9Config(in.Campaign, added)
		bursty := iid
		if added > 0 {
			bursty = in.Campaign
			ge := simnet.GilbertElliott(added, in.BurstLen)
			bursty.Impairment = &ge
		}
		arms = append(arms, fitArm(iid, added, &row.IID, &row.IIDStats), fitArm(bursty, added, &row.Bursty, &row.BurstyStats))
	}
	return arms, rows, nil
}

// errImpaired refuses a sweep whose arms set the path's impairment on a
// base campaign that already sets one.
var errImpaired = errors.New("the sweep's arms set the path impairment, which the base campaign sets already (-burst-loss, -jitter, -reorder or -outage)")

// fitArm reads cfg's dataset into its Figure-9 fit at the added loss
// rate and its execution counters.
func fitArm(cfg CampaignConfig, added float64, fit *Fig9Series, stats *CampaignStats) Arm {
	return Arm{cfg, func(d *Dataset) (err error) {
		*fit, err = ComputeFigure9Series(d, added)
		*stats = d.Stats
		return err
	}}
}

// RenderLossProfile prints the i.i.d.-vs-bursty comparison with the
// recovery activity behind each arm.
func RenderLossProfile(rows []LossProfileRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Loss profile: i.i.d. vs bursty (mean burst %.0f pkts) at matched average rates\n", rows[0].MeanBurst)
	}
	w := newTable(&sb)
	fmt.Fprintln(w, "added loss\tiid median (ms)\tbursty median (ms)\tiid slope\tbursty slope\tiid RTO+PTO\tbursty RTO+PTO\tbursty retries")
	for _, r := range rows {
		fmt.Fprintf(w, "%.1f%%\t%.1f\t%.1f\t%.2f\t%.2f\t%d\t%d\t%d\n",
			100*r.AddedLoss,
			r.IID.MedianReductionMs, r.Bursty.MedianReductionMs,
			r.IID.Slope, r.Bursty.Slope,
			r.IIDStats.Recovery.Timeouts+r.IIDStats.Recovery.ProbeFires,
			r.BurstyStats.Recovery.Timeouts+r.BurstyStats.Recovery.ProbeFires,
			r.BurstyStats.Recovery.FetchRetries)
	}
	_ = w.Flush()
	sb.WriteString("bursty drops cluster into RTO/PTO-scale gaps, stressing recovery where H3's advantage concentrates\n")
	return sb.String()
}
