package simnet

import (
	"fmt"
	"strings"
	"time"
)

// Impairment is the fault-injection profile of a directed path: bursty
// loss (a Gilbert–Elliott two-state chain), bounded delay jitter, bounded
// packet reordering, and scheduled outages. The struct is read-only after
// construction — all mutable state (the chain position, the impairment
// RNG) lives in the network's per-path state, seeded by path label from
// the network's seqrand source, so identical seeds yield identical fault
// sequences regardless of unrelated traffic and of worker sharding. A
// nil *Impairment in PathProps keeps the unimpaired fast path byte- and
// allocation-identical to a network without the fault layer.
type Impairment struct {
	// Gilbert–Elliott loss. The chain starts in Good; each transmission
	// attempt draws a drop with the current state's rate, then performs
	// the state transition. LossGood/LossBad are per-packet drop
	// probabilities in each state; PGoodBad/PBadGood are the per-packet
	// transition probabilities. All zero disables the chain (draws no
	// randomness), so jitter-only profiles stay independent of loss.
	LossGood float64
	LossBad  float64
	PGoodBad float64
	PBadGood float64

	// JitterMax adds a uniform [0, JitterMax) extra propagation delay
	// per delivered packet. Zero disables (no draw).
	JitterMax time.Duration

	// ReorderRate holds a delivered packet back by ReorderDelay with
	// this probability, letting later-sent packets overtake it. The
	// scheduler's (time, seq) order keeps even equal-time arrivals
	// deterministic.
	ReorderRate  float64
	ReorderDelay time.Duration

	// Outages are down windows: any packet whose serialization starts in
	// [Start, End) is dropped after consuming its link time, exactly
	// like a loss drop. Windows must be disjoint and sorted (Validate).
	Outages []Outage
}

// Outage is one scheduled down window of a path, in virtual time.
type Outage struct {
	Start time.Duration
	End   time.Duration
}

// Validate reports the first value a fault profile cannot mean: a
// probability outside [0, 1] (NaN included), a negative jitter or
// reorder delay, or outage windows that are empty, start before zero,
// or are not listed in time order without overlapping.
func (im *Impairment) Validate() error {
	for _, r := range []struct {
		name string
		p    float64
	}{
		{"good-state loss", im.LossGood}, {"bad-state loss", im.LossBad},
		{"good-to-bad transition", im.PGoodBad}, {"bad-to-good transition", im.PBadGood},
		{"reorder rate", im.ReorderRate},
	} {
		if !(r.p >= 0 && r.p <= 1) {
			return fmt.Errorf("simnet: impairment %s %v: must be a probability in [0, 1]", r.name, r.p)
		}
	}
	if im.JitterMax < 0 {
		return fmt.Errorf("simnet: impairment jitter %v: must be a non-negative duration", im.JitterMax)
	}
	if im.ReorderDelay < 0 {
		return fmt.Errorf("simnet: impairment reorder delay %v: must be a non-negative duration", im.ReorderDelay)
	}
	return checkOutages(im.Outages)
}

// checkOutages reports the first outage window that is empty, starts
// before zero, or starts before the previous one ends.
func checkOutages(ws []Outage) error {
	for i, w := range ws {
		switch {
		case w.Start < 0 || w.End <= w.Start:
			return fmt.Errorf("simnet: outage %v-%v: end must follow a non-negative start", w.Start, w.End)
		case i > 0 && w.Start < ws[i-1].End:
			return fmt.Errorf("simnet: outage %v-%v: starts before the previous window ends", w.Start, w.End)
		}
	}
	return nil
}

// ParseOutages parses comma-separated start-end duration pairs, e.g.
// "2s-4s,10s-11s", into the Outages of an Impairment; "" is none. The
// windows must be listed in time order without overlapping.
func ParseOutages(spec string) ([]Outage, error) {
	if spec == "" {
		return nil, nil
	}
	var out []Outage
	for _, field := range strings.Split(spec, ",") {
		lo, hi, ok := strings.Cut(strings.TrimSpace(field), "-")
		if !ok {
			return nil, fmt.Errorf("outage %q: want start-end", field)
		}
		start, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		end, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("outage %q: %v", field, err)
		}
		out = append(out, Outage{Start: start, End: end})
	}
	if err := checkOutages(out); err != nil {
		return nil, err
	}
	return out, nil
}

// hasGE reports whether the Gilbert–Elliott chain is configured.
func (im *Impairment) hasGE() bool {
	return im.LossGood > 0 || im.LossBad > 0 || im.PGoodBad > 0 || im.PBadGood > 0
}

// down reports whether t falls inside an outage window.
func (im *Impairment) down(t time.Duration) bool {
	for _, o := range im.Outages {
		if t >= o.Start && t < o.End {
			return true
		}
	}
	return false
}

// GilbertElliott builds a bursty-loss profile whose stationary average
// loss matches avgLoss with mean burst length meanBurst (consecutive
// drops). It uses the classic degenerate parameterization — Good never
// drops, Bad always drops — so the Bad-state sojourn is the burst:
// PBadGood = 1/meanBurst, and the stationary Bad probability equals
// avgLoss, giving PGoodBad = avgLoss·PBadGood/(1−avgLoss). This is the
// matched-average counterpart of an i.i.d. Bernoulli LossRate=avgLoss
// path: same long-run drop rate, different clustering.
func GilbertElliott(avgLoss, meanBurst float64) Impairment {
	if avgLoss <= 0 {
		return Impairment{}
	}
	if avgLoss > 0.5 {
		avgLoss = 0.5
	}
	if meanBurst < 1 {
		meanBurst = 1
	}
	r := 1 / meanBurst
	return Impairment{
		LossBad:  1,
		PBadGood: r,
		PGoodBad: avgLoss * r / (1 - avgLoss),
	}
}

// RecoveryStats aggregates loss-recovery and retry activity across the
// client-side connections wired to it (see tcpsim.Config.Recovery,
// quicsim.Config.Recovery, browser.Config.Recovery). Field names are
// transport-neutral; each transport maps its own machinery onto them.
// All increments happen in scheduler context, so a per-universe instance
// needs no locking.
type RecoveryStats struct {
	// Timeouts counts TCP RTO expirations.
	Timeouts int64
	// FastRetransmits counts TCP dupack-triggered retransmissions.
	FastRetransmits int64
	// Retransmits counts TCP retransmitted segments (all causes).
	Retransmits int64
	// ProbeFires counts QUIC PTO expirations.
	ProbeFires int64
	// PacketsDeclaredLost counts QUIC packet-threshold loss detections.
	PacketsDeclaredLost int64
	// OutageCrossings counts recovery episodes where a connection
	// received a valid ACK after ≥2 consecutive timeouts/probes — the
	// signature of surviving a blackout rather than isolated loss.
	OutageCrossings int64
	// ConnFailures counts connections torn down by their transport
	// (timeout / refused), i.e. retryable errors surfaced upward.
	ConnFailures int64
	// FetchRetries counts browser resource re-fetches after a transport
	// error.
	FetchRetries int64
}

// Add accumulates o into r (shard aggregation).
func (r *RecoveryStats) Add(o RecoveryStats) {
	r.Timeouts += o.Timeouts
	r.FastRetransmits += o.FastRetransmits
	r.Retransmits += o.Retransmits
	r.ProbeFires += o.ProbeFires
	r.PacketsDeclaredLost += o.PacketsDeclaredLost
	r.OutageCrossings += o.OutageCrossings
	r.ConnFailures += o.ConnFailures
	r.FetchRetries += o.FetchRetries
}
