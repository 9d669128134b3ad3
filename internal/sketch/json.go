package sketch

import (
	"encoding/json"
	"fmt"
	"math"
)

// JSON round-trips for every sketch type, so a traffic shard can
// checkpoint its streaming aggregates mid-campaign and resume them
// byte-exactly. Marshaling is deterministic: map-backed state is
// emitted as sorted parallel arrays, and the empty-sketch ±Inf min/max
// sentinels (unrepresentable in JSON) are omitted and reconstructed on
// decode. Unmarshal rebuilds every derived field (γ, ln γ, bucket
// budget) from α, so a decoded sketch folds and merges exactly like
// the original.

type quantileJSON struct {
	Alpha  float64  `json:"alpha"`
	Keys   []int32  `json:"keys,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Zeros  uint64   `json:"zeros,omitempty"`
	Count  uint64   `json:"count"`
	Min    float64  `json:"min,omitempty"`
	Max    float64  `json:"max,omitempty"`
}

// MarshalJSON encodes the sketch with its buckets in ascending key
// order (deterministic bytes for identical state).
func (q *Quantile) MarshalJSON() ([]byte, error) {
	j := quantileJSON{Alpha: q.alpha, Zeros: q.zeros, Count: q.count}
	if len(q.counts) > 0 {
		j.Keys = q.sortedKeys()
		j.Counts = make([]uint64, len(j.Keys))
		for i, k := range j.Keys {
			j.Counts[i] = q.counts[k]
		}
	}
	if q.count > 0 {
		j.Min = q.min
		j.Max = q.max
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes into q, replacing its state entirely.
func (q *Quantile) UnmarshalJSON(data []byte) error {
	var j quantileJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Keys) != len(j.Counts) {
		return fmt.Errorf("sketch: quantile keys/counts length mismatch (%d vs %d)", len(j.Keys), len(j.Counts))
	}
	*q = *NewQuantile(j.Alpha)
	q.zeros = j.Zeros
	q.count = j.Count
	if j.Count > 0 {
		q.min = j.Min
		q.max = j.Max
	}
	for i, k := range j.Keys {
		q.counts[k] = j.Counts[i]
	}
	return nil
}

type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
}

// MarshalJSON encodes the histogram's bounds and counts.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts, Count: h.count})
}

// UnmarshalJSON decodes into h, replacing its state entirely.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Counts) != len(j.Bounds)+1 {
		return fmt.Errorf("sketch: histogram counts length %d, want %d", len(j.Counts), len(j.Bounds)+1)
	}
	for i := 1; i < len(j.Bounds); i++ {
		if j.Bounds[i] <= j.Bounds[i-1] {
			return fmt.Errorf("sketch: histogram bounds not strictly increasing at %d (%v after %v)", i, j.Bounds[i], j.Bounds[i-1])
		}
	}
	*h = *NewHistogram(j.Bounds)
	copy(h.counts, j.Counts)
	h.count = j.Count
	return nil
}

// groupMetricsJSON mirrors GroupMetrics with the unexported α exposed.
type groupMetricsJSON struct {
	Alpha float64 `json:"alpha"`

	Pages    uint64     `json:"pages"`
	PLT      *Quantile  `json:"plt"`
	PLTHist  *Histogram `json:"pltHist"`
	PLTSumNs int64      `json:"pltSumNs"`

	Bytes   Counter `json:"bytes"`
	Entries Counter `json:"entries"`
	Failed  Counter `json:"failed,omitempty"`
	Retries Counter `json:"retries,omitempty"`
	Reused  Counter `json:"reused,omitempty"`
	Resumed Counter `json:"resumed,omitempty"`

	CacheHits   Counter   `json:"cacheHits,omitempty"`
	CacheMisses Counter   `json:"cacheMisses,omitempty"`
	ColdPages   uint64    `json:"coldPages,omitempty"`
	WarmPages   uint64    `json:"warmPages,omitempty"`
	PLTCold     *Quantile `json:"pltCold,omitempty"`
	PLTWarm     *Quantile `json:"pltWarm,omitempty"`

	PhasePages uint64               `json:"phasePages,omitempty"`
	PhaseSumNs [NumPhases]int64     `json:"phaseSumNs"`
	Phase      [NumPhases]*Quantile `json:"phase"`
}

// MarshalJSON encodes one group's aggregates.
func (g *GroupMetrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(groupMetricsJSON{
		Alpha:       g.alpha,
		Pages:       g.Pages,
		PLT:         g.PLT,
		PLTHist:     g.PLTHist,
		PLTSumNs:    g.PLTSumNs,
		Bytes:       g.Bytes,
		Entries:     g.Entries,
		Failed:      g.Failed,
		Retries:     g.Retries,
		Reused:      g.Reused,
		Resumed:     g.Resumed,
		CacheHits:   g.CacheHits,
		CacheMisses: g.CacheMisses,
		ColdPages:   g.ColdPages,
		WarmPages:   g.WarmPages,
		PLTCold:     g.PLTCold,
		PLTWarm:     g.PLTWarm,
		PhasePages:  g.PhasePages,
		PhaseSumNs:  g.PhaseSumNs,
		Phase:       g.Phase,
	})
}

// UnmarshalJSON decodes into g, replacing its state entirely. Sketches
// absent from the encoding (omitempty nils) come back empty, not nil,
// so the decoded group merges and folds like any other.
func (g *GroupMetrics) UnmarshalJSON(data []byte) error {
	var j groupMetricsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Alpha <= 0 || j.Alpha >= 1 || math.IsNaN(j.Alpha) {
		return fmt.Errorf("sketch: group alpha %v out of range", j.Alpha)
	}
	*g = GroupMetrics{
		alpha:       j.Alpha,
		Pages:       j.Pages,
		PLT:         j.PLT,
		PLTHist:     j.PLTHist,
		PLTSumNs:    j.PLTSumNs,
		Bytes:       j.Bytes,
		Entries:     j.Entries,
		Failed:      j.Failed,
		Retries:     j.Retries,
		Reused:      j.Reused,
		Resumed:     j.Resumed,
		CacheHits:   j.CacheHits,
		CacheMisses: j.CacheMisses,
		ColdPages:   j.ColdPages,
		WarmPages:   j.WarmPages,
		PLTCold:     j.PLTCold,
		PLTWarm:     j.PLTWarm,
		PhasePages:  j.PhasePages,
		PhaseSumNs:  j.PhaseSumNs,
		Phase:       j.Phase,
	}
	if g.PLT == nil {
		g.PLT = NewQuantile(j.Alpha)
	}
	if g.PLTHist == nil {
		g.PLTHist = NewHistogram(DefaultPLTBoundsMs)
	}
	if g.PLTCold == nil {
		g.PLTCold = NewQuantile(j.Alpha)
	}
	if g.PLTWarm == nil {
		g.PLTWarm = NewQuantile(j.Alpha)
	}
	for i := range g.Phase {
		if g.Phase[i] == nil {
			g.Phase[i] = NewQuantile(j.Alpha)
		}
	}
	return nil
}

// accumulatorJSON lists groups in canonical key order.
type accumulatorJSON struct {
	Alpha  float64         `json:"alpha"`
	Groups []groupKeyedRow `json:"groups"`
}

type groupKeyedRow struct {
	Mode    string        `json:"mode"`
	Vantage string        `json:"vantage"`
	Metrics *GroupMetrics `json:"metrics"`
}

// MarshalJSON encodes the accumulator with groups sorted by
// (mode, vantage) — identical state yields identical bytes.
func (a *MetricAccumulator) MarshalJSON() ([]byte, error) {
	j := accumulatorJSON{Alpha: a.alpha, Groups: make([]groupKeyedRow, 0, len(a.groups))}
	for _, k := range a.Keys() {
		j.Groups = append(j.Groups, groupKeyedRow{Mode: k.Mode, Vantage: k.Vantage, Metrics: a.groups[k]})
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes into a, replacing its state entirely.
func (a *MetricAccumulator) UnmarshalJSON(data []byte) error {
	var j accumulatorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*a = *NewAccumulator(j.Alpha)
	for _, row := range j.Groups {
		if row.Metrics == nil {
			continue
		}
		a.groups[Key{Mode: row.Mode, Vantage: row.Vantage}] = row.Metrics
	}
	return nil
}

type reservoirJSON[T any] struct {
	Capacity int   `json:"capacity"`
	Seen     int64 `json:"seen"`
	// Rng is the splitmix64 stream position; Seqs and Items are the
	// sample in slot order (replacement draws index slots, so slot
	// order is state, not presentation).
	Rng   uint64  `json:"rng"`
	Seqs  []int64 `json:"seqs,omitempty"`
	Items []T     `json:"items,omitempty"`
}

// MarshalJSON encodes the reservoir's complete state — capacity, offer
// count, stream position, and the sample with its offer sequence
// numbers — so a decoded reservoir continues the offer sequence exactly
// where the original stopped.
func (r *Reservoir[T]) MarshalJSON() ([]byte, error) {
	j := reservoirJSON[T]{Capacity: r.capacity, Seen: r.seen, Rng: r.rng}
	for _, it := range r.items {
		j.Seqs = append(j.Seqs, it.seq)
		j.Items = append(j.Items, it.v)
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes into r, replacing its state entirely.
func (r *Reservoir[T]) UnmarshalJSON(data []byte) error {
	var j reservoirJSON[T]
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Seqs) != len(j.Items) {
		return fmt.Errorf("sketch: reservoir seqs/items length mismatch (%d vs %d)", len(j.Seqs), len(j.Items))
	}
	if j.Capacity < 0 || len(j.Items) > j.Capacity || j.Seen < int64(len(j.Items)) {
		return fmt.Errorf("sketch: reservoir holds %d items at capacity %d after %d offers", len(j.Items), j.Capacity, j.Seen)
	}
	*r = Reservoir[T]{capacity: j.Capacity, seen: j.Seen, rng: j.Rng}
	for i, v := range j.Items {
		r.items = append(r.items, reservoirItem[T]{seq: j.Seqs[i], v: v})
	}
	return nil
}
