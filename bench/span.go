package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it: the
// benchmark wraps the exported function, the program itself carries no
// instrumentation. Start/End are nanoseconds since the recorder was
// created; Parent is the id of the enclosing span (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// spanRecorder keeps spans in memory until the benchmark ends. It is
// used from one goroutine only (the traced pass is single-threaded), so
// the open-span stack needs no lock.
type spanRecorder struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int // indices into spans, innermost last
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *spanRecorder) begin(name string) int {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		ID:       len(r.spans) + 1,
		Parent:   parent,
		Name:     name,
		Workload: r.workload,
		Start:    int64(time.Since(r.epoch)),
	})
	idx := len(r.spans) - 1
	r.open = append(r.open, idx)
	return idx
}

// end closes the span begin returned and reports its duration. Spans
// close innermost-first; anything else is a bug in the benchmark.
func (r *spanRecorder) end(idx int) time.Duration {
	n := len(r.open)
	if n == 0 || r.open[n-1] != idx {
		panic(fmt.Sprintf("bench: span %q closed out of order", r.spans[idx].Name))
	}
	r.open = r.open[:n-1]
	s := &r.spans[idx]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.End - s.Start)
}

// do times fn as a span.
func (r *spanRecorder) do(name string, fn func()) time.Duration {
	idx := r.begin(name)
	fn()
	return r.end(idx)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover, keyed by span id. Children of one
// parent may overlap (they do not here, but the definition allows it),
// so coverage is the length of the union of their intervals clipped to
// the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span, len(spans))
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time over spans sharing a name within one
// workload — the rows of the traced pass's span table.
func selfByName(spans []span, workload string) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Workload == workload {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
