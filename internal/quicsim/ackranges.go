package quicsim

import "sort"

// pnRange is an inclusive packet-number range.
type pnRange struct {
	lo, hi uint64
}

// rangeSet tracks received packet numbers as merged inclusive ranges,
// sorted ascending. It backs ACK frame generation.
type rangeSet struct {
	ranges []pnRange
}

// add inserts pn, merging adjacent ranges. Returns false on duplicates.
// In-order packet numbers extend or follow the last range, so that is
// checked before the search.
func (s *rangeSet) add(pn uint64) bool {
	n := len(s.ranges)
	if n == 0 || s.ranges[n-1].hi+1 < pn {
		s.ranges = append(s.ranges, pnRange{lo: pn, hi: pn})
		return true
	}
	if s.ranges[n-1].hi+1 == pn {
		s.ranges[n-1].hi = pn
		return true
	}
	// First range that pn falls in or extends (ranges sorted ascending).
	i := sort.Search(n, func(i int) bool { return s.ranges[i].hi+1 >= pn })
	if s.ranges[i].lo <= pn && pn <= s.ranges[i].hi {
		return false // duplicate
	}
	// Extend an adjacent range if possible.
	switch {
	case s.ranges[i].hi+1 == pn:
		s.ranges[i].hi = pn
		// Merge with the next range if now adjacent.
		if i+1 < n && s.ranges[i].hi+1 == s.ranges[i+1].lo {
			s.ranges[i].hi = s.ranges[i+1].hi
			s.ranges = append(s.ranges[:i+1], s.ranges[i+2:]...)
		}
	case pn+1 == s.ranges[i].lo:
		s.ranges[i].lo = pn
		if i > 0 && s.ranges[i-1].hi+1 == s.ranges[i].lo {
			s.ranges[i-1].hi = s.ranges[i].hi
			s.ranges = append(s.ranges[:i], s.ranges[i+1:]...)
		}
	default:
		s.ranges = append(s.ranges, pnRange{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = pnRange{lo: pn, hi: pn}
	}
	return true
}

// snapshot appends up to max ranges, most recent (highest) first, to out
// for an ACK frame; a pooled packet passes its range slice back in.
func (s *rangeSet) snapshot(out []pnRange, max int) []pnRange {
	n := len(s.ranges)
	if max > n {
		max = n
	}
	for i := n - 1; i >= n-max; i-- {
		out = append(out, s.ranges[i])
	}
	return out
}
