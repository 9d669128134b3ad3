package sketch

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeStable requires raw to either fail to decode into a T or decode
// to a value whose encoding decodes again to the same encoding.
func decodeStable[T any](t *testing.T, raw []byte) *T {
	v := new(T)
	if json.Unmarshal(raw, v) != nil {
		return nil
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T decoded from %q does not encode: %v", v, raw, err)
	}
	back := new(T)
	if err := json.Unmarshal(enc, back); err != nil {
		t.Fatalf("%T re-encoding %s does not decode: %v", v, enc, err)
	}
	if again, _ := json.Marshal(back); !bytes.Equal(again, enc) {
		t.Fatalf("%T from %q re-encodes as %s, then %s", v, raw, enc, again)
	}
	return v
}

// FuzzSketchJSON feeds the same bytes to every sketch decoder a traffic
// checkpoint reaches: none may panic, and whatever decodes re-encodes
// stably and keeps working (queried, folded, offered to).
func FuzzSketchJSON(f *testing.F) {
	q := NewQuantile(DefaultAlpha)
	for _, v := range []float64{0, 3, 17.5, 1e6} {
		q.Add(v)
	}
	h := NewHistogram([]float64{1, 10, 100})
	h.Add(5)
	a := NewAccumulator(DefaultAlpha)
	a.Group(Key{Mode: "h3", Vantage: "pop"}).Fold(VisitSample{PLTNs: 2e9, Entries: 3, Warm: true,
		Phase: &PhaseSample{Ns: [NumPhases]int64{1e6, 2e6}}})
	r := NewReservoir[string](2, 9)
	for _, s := range []string{"a", "b", "c"} {
		r.Offer(s)
	}
	for _, v := range []any{q, NewQuantile(0.05), h, a.Lookup(Key{Mode: "h3", Vantage: "pop"}), a, r} {
		blob, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, s := range []string{
		`{"bounds":[2,1],"counts":[0,0,0],"count":0}`,
		`{"bounds":[1,1],"counts":[0,0,0],"count":0}`,
		`{"alpha":0.01,"keys":[1,1],"counts":[2,3],"count":1,"min":-0}`,
		`{"alpha":0.02,"pages":1,"plt":null,"pltHist":{"bounds":[],"counts":[7],"count":7},"phase":[null]}`,
		`{"alpha":2,"groups":[{"mode":"h2","vantage":"x","metrics":null},{"mode":"h2","vantage":"x","metrics":{"alpha":0.5}}]}`,
		`{"capacity":1,"seen":1,"rng":5,"seqs":[9],"items":["\xff"]}`,
		`null`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if q := decodeStable[Quantile](t, raw); q != nil {
			q.Query(0.5)
			q.Add(1)
		}
		if h := decodeStable[Histogram](t, raw); h != nil {
			h.Add(1)
		}
		if g := decodeStable[GroupMetrics](t, raw); g != nil {
			g.Fold(VisitSample{PLTNs: 1e6, Entries: 1, Phase: &PhaseSample{}})
			g.MedianPLTMs()
		}
		if a := decodeStable[MetricAccumulator](t, raw); a != nil {
			a.Pages()
			a.Group(Key{Mode: "h2", Vantage: "v"}).Fold(VisitSample{PLTNs: 1e6})
		}
		if r := decodeStable[Reservoir[string]](t, raw); r != nil {
			r.Offer("x")
			r.Items()
		}
	})
}
