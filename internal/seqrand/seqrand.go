// Package seqrand provides deterministic, hierarchically split random
// number streams for reproducible simulations.
//
// A simulation run owns a single root Source created from a seed. Every
// subsystem derives its own independent stream with Stream, keyed by a
// human-readable label path (e.g. "loss/probe1/edge.google"). Two runs with
// the same seed and the same label structure observe identical randomness,
// regardless of event interleaving between unrelated subsystems.
package seqrand

import (
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Source is the root of a deterministic stream hierarchy.
type Source struct {
	seed   uint64
	prefix []string
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	return &Source{seed: seed}
}

// Stream derives an independent *rand.Rand keyed by the label path.
// The same labels always yield a stream with the same state sequence.
func (s *Source) Stream(labels ...string) *rand.Rand {
	return (*Pool)(nil).Stream(s, labels...)
}

// Pool lends generators to streams that end together — a population
// shard's streams of one epoch — and reseeds them for the streams drawn
// after: rand.Rand.Seed on a NewSource generator gives exactly the
// sequence a fresh NewSource(seed) gives, so a pooled stream draws what
// Source.Stream's would, without allocating its 4.9 KB source. A Pool
// belongs to one goroutine; the zero value is ready to use.
type Pool struct {
	free, lent []*rand.Rand
}

// Stream is s.Stream(labels...) on a generator from the pool, lent
// until the next Reclaim. A nil Pool allocates, as Source.Stream does.
func (p *Pool) Stream(s *Source, labels ...string) *rand.Rand {
	seed := int64(s.StreamSeed(labels...))
	if p == nil {
		return rand.New(rand.NewSource(seed)) //nolint:gosec // simulation, not crypto
	}
	var r *rand.Rand
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		r.Seed(seed)
	} else {
		r = rand.New(rand.NewSource(seed)) //nolint:gosec // simulation, not crypto
	}
	p.lent = append(p.lent, r)
	return r
}

// Reclaim takes back every generator lent since the last Reclaim. Call
// it once nothing will draw from them again.
func (p *Pool) Reclaim() {
	p.free = append(p.free, p.lent...)
	clear(p.lent)
	p.lent = p.lent[:0]
}

// StreamSeed derives the 64-bit sub-seed for the label path without
// constructing the generator.
func (s *Source) StreamSeed(labels ...string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], s.seed)
	_, _ = h.Write(buf[:])
	for _, l := range s.prefix {
		_, _ = h.Write([]byte{0}) // separator so ("ab","c") != ("a","bc")
		_, _ = h.Write([]byte(l))
	}
	for _, l := range labels {
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(l))
	}
	return h.Sum64()
}

// Sub derives a child Source. Sub("a").Stream("b") == Stream("a", "b").
func (s *Source) Sub(labels ...string) *Source {
	prefix := make([]string, 0, len(s.prefix)+len(labels))
	prefix = append(prefix, s.prefix...)
	prefix = append(prefix, labels...)
	return &Source{seed: s.seed, prefix: prefix}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Label is a convenience for building numeric labels without fmt.
func Label(prefix string, n int) string {
	return prefix + "/" + strconv.Itoa(n)
}
