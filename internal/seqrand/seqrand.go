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
	return rand.New(rand.NewSource(int64(s.StreamSeed(labels...)))) //nolint:gosec // simulation, not crypto
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
