// Package traces bundles synthetic cellular-link capacity traces for the
// simnet.TraceLink replay layer. Real Mahimahi recordings (Verizon LTE,
// TMobile UMTS, ...) cannot ship with the repository, so each profile
// here generates a deterministic time-series with the statistical shape
// the Domain-Sharding paper's lossy-cellular scenario needs: a moving
// capacity baseline, multiplicative fast fading, and (for some profiles)
// hard zero-capacity dead zones. Generation uses a fixed-seed xorshift
// stream — no global randomness — so a profile name alone pins the exact
// trace bytes, which is what lets trace-driven campaigns participate in
// the pinned-golden determinism discipline.
package traces

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"h3cdn/internal/simnet"
)

// epoch width shared by all profiles: 100ms tracks cellular fading at
// the granularity Mahimahi recordings are usually summarized at.
const epochDur = 100 * time.Millisecond

// profiles generates each synthetic cellular link by name.
var profiles = map[string]func() []simnet.TraceSample{
	// LTE-like downlink: 24 Mbit/s ceiling, deep periodic fades to ~2 Mbit/s.
	"lte": func() []simnet.TraceSample {
		return fading("lte", 120, 24e6, 2e6, 4*time.Second, 0)
	},
	// UMTS-like downlink: 4 Mbit/s ceiling, slow swings down to ~0.5 Mbit/s.
	"umts": func() []simnet.TraceSample {
		return fading("umts", 120, 4e6, 0.5e6, 8*time.Second, 0)
	},
	// LTE-like downlink with hard 600ms zero-capacity dead zones every ~5s.
	"deadzone": func() []simnet.TraceSample {
		return fading("deadzone", 120, 20e6, 1.5e6, 5*time.Second, 6)
	},
	// Square wave: 2s at 20 Mbit/s alternating with 2s at 2 Mbit/s.
	"stepdown": func() []simnet.TraceSample {
		samples := make([]simnet.TraceSample, 0, 4)
		for i := 0; i < 2; i++ {
			samples = append(samples,
				simnet.TraceSample{Duration: 2 * time.Second, Bps: 20e6},
				simnet.TraceSample{Duration: 2 * time.Second, Bps: 2e6})
		}
		return samples
	},
}

// Names lists the available profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Profile builds the named synthetic trace.
func Profile(name string) (*simnet.TraceLink, error) {
	gen, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("traces: unknown profile %q (have %v)", name, Names())
	}
	return simnet.NewTraceLink("synthetic:"+name, gen())
}

// Load resolves a link-trace spec, the -link-trace flag's value: a
// profile name, else the path of a Mahimahi trace file, whose base name
// names the trace. Either way every capacity sample is multiplied by
// scale. An empty spec is no trace.
func Load(spec string, scale float64) (*simnet.TraceLink, error) {
	if spec == "" {
		return nil, nil
	}
	var (
		tl  *simnet.TraceLink
		err error
	)
	if _, ok := profiles[spec]; ok {
		tl, err = Profile(spec)
	} else {
		f, ferr := os.Open(spec)
		if ferr != nil {
			return nil, fmt.Errorf("link-trace %q: not a synthetic profile (%s) and not a readable file: %v",
				spec, strings.Join(Names(), ", "), ferr)
		}
		defer f.Close()
		tl, err = simnet.ParseMahimahiTrace(filepath.Base(spec), f, 0, 0)
	}
	if err != nil {
		return nil, err
	}
	return tl.Scaled(scale)
}

// fading generates n epochs of capacity: a sinusoid between floor and
// ceiling with period swing, multiplied by xorshift fast fading (±25%),
// and — when deadEvery > 0 — a run of deadEvery zero-capacity epochs at
// the bottom of each swing (the dead zone of a coverage hole).
func fading(seed string, n int, ceiling, floor float64, swing time.Duration, deadEvery int) []simnet.TraceSample {
	rng := newXorshift(seed)
	samples := make([]simnet.TraceSample, n)
	perSwing := int(swing / epochDur)
	if perSwing < 2 {
		perSwing = 2
	}
	mid := (ceiling + floor) / 2
	amp := (ceiling - floor) / 2
	for i := range samples {
		phase := 2 * math.Pi * float64(i%perSwing) / float64(perSwing)
		base := mid + amp*math.Cos(phase)
		// Fast fading: multiplicative jitter in [0.75, 1.25).
		fade := 0.75 + 0.5*rng.float()
		bps := base * fade
		if bps < floor {
			bps = floor
		}
		if deadEvery > 0 {
			// The dead zone sits at the swing's trough (phase ≈ π).
			trough := perSwing / 2
			if d := i%perSwing - trough; d >= 0 && d < deadEvery {
				bps = 0
			}
		}
		samples[i] = simnet.TraceSample{Duration: epochDur, Bps: bps}
	}
	return samples
}

// xorshift is a tiny deterministic generator seeded from a string — the
// package must not touch math/rand's global state, and the profile name
// alone has to reproduce the trace.
type xorshift struct{ s uint64 }

func newXorshift(seed string) *xorshift {
	// FNV-1a over the seed string.
	h := uint64(14695981039346656037)
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return &xorshift{s: h}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// float returns a uniform value in [0, 1).
func (x *xorshift) float() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}
