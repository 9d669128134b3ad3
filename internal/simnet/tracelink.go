package simnet

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// TraceSample is one capacity epoch of a trace-driven link: for Duration
// of virtual time the link serializes at Bps bits per second. Bps may be
// zero — a capacity outage: packets queue (their serialization stalls)
// until a later epoch supplies capacity, which is how cellular dead
// zones differ from loss (nothing is dropped, everything is late).
type TraceSample struct {
	Duration time.Duration
	Bps      float64
}

// TraceLink replays a time-series of capacity samples on a path —
// the Mahimahi-style variable-link model. The trace loops: virtual time
// t maps to epoch (t mod period). A TraceLink is immutable after
// construction and safe to share across paths, universes, and worker
// goroutines; serialization is a pure function of (start, size), so
// replay is deterministic regardless of sharding.
//
// TraceLink composes with the Impairment layer: the trace governs when
// bytes drain onto the wire (capacity), Impairment governs what happens
// to them afterwards (loss, jitter, reordering, outages). A packet first
// waits for link capacity under the trace, then rolls the impairment
// dice — exactly the order a real last-mile queue ahead of a lossy air
// interface imposes.
type TraceLink struct {
	name    string
	samples []TraceSample
	// offsets[i] is the start of samples[i] within one period;
	// offsets[len] == period.
	offsets []time.Duration
	period  time.Duration
}

// NewTraceLink validates samples and builds the replay structure. Every
// sample needs a positive duration and non-negative rate, and at least
// one sample must carry positive capacity (an all-zero trace could never
// finish serializing a packet).
func NewTraceLink(name string, samples []TraceSample) (*TraceLink, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("simnet: trace %q: no samples", name)
	}
	tl := &TraceLink{
		name:    name,
		samples: append([]TraceSample(nil), samples...),
		offsets: make([]time.Duration, len(samples)+1),
	}
	hasCapacity := false
	for i, s := range tl.samples {
		if s.Duration <= 0 {
			return nil, fmt.Errorf("simnet: trace %q: sample %d: non-positive duration %v", name, i, s.Duration)
		}
		if s.Bps < 0 || s.Bps != s.Bps {
			return nil, fmt.Errorf("simnet: trace %q: sample %d: invalid rate %v", name, i, s.Bps)
		}
		if s.Bps > 0 {
			hasCapacity = true
		}
		tl.offsets[i] = tl.period
		tl.period += s.Duration
	}
	tl.offsets[len(tl.samples)] = tl.period
	if !hasCapacity {
		return nil, fmt.Errorf("simnet: trace %q: every sample has zero capacity", name)
	}
	return tl, nil
}

// Name returns the trace's label (profile or file name).
func (tl *TraceLink) Name() string { return tl.name }

// Period returns the trace length; replay wraps modulo this.
func (tl *TraceLink) Period() time.Duration { return tl.period }

// Epochs returns the number of capacity samples in one period.
func (tl *TraceLink) Epochs() int { return len(tl.samples) }

// MeanBps returns the time-weighted average capacity over one period.
func (tl *TraceLink) MeanBps() float64 {
	var bits float64
	for _, s := range tl.samples {
		bits += s.Bps * s.Duration.Seconds()
	}
	return bits / tl.period.Seconds()
}

// Scaled returns a copy with every sample's rate multiplied by factor
// (the -trace-scale knob). factor must be positive and finite.
func (tl *TraceLink) Scaled(factor float64) (*TraceLink, error) {
	if !(factor > 0) || factor > 1e12 {
		return nil, fmt.Errorf("simnet: trace %q: invalid scale %v", tl.name, factor)
	}
	if factor == 1 {
		return tl, nil
	}
	scaled := make([]TraceSample, len(tl.samples))
	for i, s := range tl.samples {
		scaled[i] = TraceSample{Duration: s.Duration, Bps: s.Bps * factor}
	}
	return NewTraceLink(tl.name, scaled)
}

// epochIndex maps virtual time t to its sample index within one period
// by binary search over the offset table.
func (tl *TraceLink) epochIndex(phase time.Duration) int {
	lo, hi := 0, len(tl.samples)
	for lo < hi {
		mid := (lo + hi) / 2
		if tl.offsets[mid+1] <= phase {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Epoch returns the absolute epoch number at virtual time t: period
// wraps keep counting (wrap w, sample i → w*Epochs()+i), so every
// capacity transition — including re-entering sample 0 — is a new epoch.
func (tl *TraceLink) Epoch(t time.Duration) int64 {
	if t < 0 {
		t = 0
	}
	wrap := int64(t / tl.period)
	phase := t % tl.period
	return wrap*int64(len(tl.samples)) + int64(tl.epochIndex(phase))
}

// EpochBps returns the capacity of absolute epoch e.
func (tl *TraceLink) EpochBps(e int64) float64 {
	i := e % int64(len(tl.samples))
	if i < 0 {
		i = 0
	}
	return tl.samples[i].Bps
}

// Serialize computes when a packet of size bits, starting serialization
// at start, finishes draining onto the wire: capacity integrates across
// epochs (zero-capacity epochs contribute nothing and simply delay the
// finish). It returns the finish time. The walk is a pure function of
// (start, bits), which is what keeps trace-driven campaigns
// byte-identical across worker counts.
func (tl *TraceLink) Serialize(start time.Duration, bits int64) time.Duration {
	if bits <= 0 {
		return start
	}
	remaining := float64(bits)
	t := start
	e := tl.Epoch(start)
	for {
		bps := tl.EpochBps(e)
		end := tl.epochEnd(e)
		if bps > 0 {
			span := (end - t).Seconds()
			capacity := bps * span
			if capacity >= remaining {
				return t + time.Duration(remaining/bps*float64(time.Second))
			}
			remaining -= capacity
		}
		t = end
		e++
	}
}

// epochEnd returns the virtual time absolute epoch e ends.
func (tl *TraceLink) epochEnd(e int64) time.Duration {
	n := int64(len(tl.samples))
	wrap := e / n
	i := e % n
	return time.Duration(wrap)*tl.period + tl.offsets[i+1]
}

// defaultMahimahiMTU is the delivery-opportunity size of the Mahimahi
// trace format: each timestamp line grants one 1500-byte transmission.
const defaultMahimahiMTU = 1500

// DefaultTraceWindow is the epoch width Mahimahi traces are bucketed
// into: delivery opportunities within one window average into a single
// capacity sample. Narrower windows track fades more closely at more
// epoch transitions per packet walk.
const DefaultTraceWindow = 100 * time.Millisecond

// maxTraceSpan bounds a Mahimahi trace's timestamps. Real traces span
// minutes; the bound keeps one hostile line from overflowing the
// millisecond conversion or asking for billions of epochs.
const maxTraceSpan = 24 * time.Hour

// ParseMahimahiTrace reads a Mahimahi packet-delivery-opportunity trace:
// one integer millisecond timestamp per line, each granting one MTU-sized
// (1500 B if mtu <= 0) delivery opportunity; timestamps must be
// non-decreasing and at most maxTraceSpan. Opportunities are bucketed into window-wide epochs
// (DefaultTraceWindow if window <= 0) whose capacity is the bucket's
// delivered bits over the window; the trace length rounds up to a whole
// number of windows so replay wraps cleanly.
func ParseMahimahiTrace(name string, r io.Reader, mtu int, window time.Duration) (*TraceLink, error) {
	if mtu <= 0 {
		mtu = defaultMahimahiMTU
	}
	if window <= 0 {
		window = DefaultTraceWindow
	}
	var stamps []time.Duration
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		ms, err := strconv.ParseInt(text, 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("simnet: trace %q line %d: want a non-negative ms timestamp, got %q", name, line, text)
		}
		if ms > maxTraceSpan.Milliseconds() {
			return nil, fmt.Errorf("simnet: trace %q line %d: timestamp %d ms is beyond %v", name, line, ms, maxTraceSpan)
		}
		at := time.Duration(ms) * time.Millisecond
		if n := len(stamps); n > 0 && at < stamps[n-1] {
			return nil, fmt.Errorf("simnet: trace %q line %d: timestamps must be non-decreasing", name, line)
		}
		stamps = append(stamps, at)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("simnet: trace %q: %w", name, err)
	}
	if len(stamps) == 0 {
		return nil, fmt.Errorf("simnet: trace %q: no delivery opportunities", name)
	}
	// Round the span up to whole windows; the final timestamp lands in
	// the last bucket even when it sits exactly on a window boundary.
	span := stamps[len(stamps)-1] + time.Millisecond
	buckets := int((span + window - 1) / window)
	counts := make([]int64, buckets)
	for _, at := range stamps {
		counts[int(at/window)]++
	}
	bitsPerOpp := float64(mtu) * 8
	winSec := window.Seconds()
	samples := make([]TraceSample, buckets)
	for i, c := range counts {
		samples[i] = TraceSample{Duration: window, Bps: float64(c) * bitsPerOpp / winSec}
	}
	return NewTraceLink(name, samples)
}
