package bytestream

import (
	"math/rand"
	"sort"
	"testing"
)

// TestGapsMatchesSortedMap drives Gaps and a map with random inserts,
// replacements and pops, tail-heavy like a loss recovery, and checks that
// Head always names the map's lowest offset and Each walks the map in
// order.
func TestGapsMatchesSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //nolint:gosec
	for trial := 0; trial < 300; trial++ {
		var g Gaps[int]
		ref := map[uint64]int{}
		next := uint64(0)
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // mostly ascending arrivals, sometimes a fill-in
				off := next + uint64(rng.Intn(3))
				if rng.Intn(4) == 0 {
					off = uint64(rng.Intn(int(next) + 1))
				}
				next = off + 1
				c, found := g.Slot(off)
				if _, ok := ref[off]; ok != found {
					t.Fatalf("trial %d: Slot(%d) found=%v, map has it=%v", trial, off, found, ok)
				}
				if found && *c != ref[off] {
					t.Fatalf("trial %d: Slot(%d) = %d, map holds %d", trial, off, *c, ref[off])
				}
				*c = op
				ref[off] = op
			case k < 9:
				if g.Len() == 0 {
					continue
				}
				off, c, ok := g.Head()
				lo := lowest(ref)
				if !ok || off != lo || c != ref[lo] {
					t.Fatalf("trial %d: Head() = %d,%d,%v, want %d,%d", trial, off, c, ok, lo, ref[lo])
				}
				g.Pop()
				delete(ref, lo)
			default:
				var offs []uint64
				g.Each(func(off uint64, c int) {
					if ref[off] != c {
						t.Fatalf("trial %d: Each gave %d at %d, map holds %d", trial, c, off, ref[off])
					}
					offs = append(offs, off)
				})
				if len(offs) != len(ref) || !sort.SliceIsSorted(offs, func(i, j int) bool { return offs[i] < offs[j] }) {
					t.Fatalf("trial %d: Each walked %v over %d chunks", trial, offs, len(ref))
				}
			}
			if g.Len() != len(ref) {
				t.Fatalf("trial %d: Len %d, map %d", trial, g.Len(), len(ref))
			}
		}
		g.Reset()
		if _, _, ok := g.Head(); ok || g.Len() != 0 {
			t.Fatalf("trial %d: not empty after Reset", trial)
		}
	}
}

func lowest(m map[uint64]int) uint64 {
	first, lo := true, uint64(0)
	for off := range m {
		if first || off < lo {
			first, lo = false, off
		}
	}
	return lo
}

// TestGapsSteadyStateDoesNotGrow: a buffer that pops one chunk per insert
// reuses its array instead of growing without bound.
func TestGapsSteadyStateDoesNotGrow(t *testing.T) {
	var g Gaps[int]
	for off := uint64(0); off < 64; off++ {
		g.Slot(off)
	}
	capAfterFill := cap(g.s)
	for off := uint64(64); off < 100_000; off++ {
		g.Pop()
		g.Slot(off)
	}
	if cap(g.s) > 2*capAfterFill {
		t.Fatalf("cap grew from %d to %d holding 64 chunks", capAfterFill, cap(g.s))
	}
}
