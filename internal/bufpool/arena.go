package bufpool

// Arena is a thread-confined, size-classed buffer recycler for callers
// that own a single-goroutine region (one simulation universe). The
// zero value is ready to use.
//
// Ownership rule: every buffer obtained from Get or Grow goes back
// through Put or Retire exactly once, by whoever holds it. Put is the
// rule: the owner proves nothing else will read the buffer (a wire
// record delivered, a TCP segment released, a QUIC stream fully
// acknowledged) and the array is reusable at once. Retire is the
// exception for a QUIC connection torn down with stream bytes still in
// flight: its frames alias the buffer and the peer may yet read them, so
// it is quarantined until the owning universe's visit-boundary Rewind.
// Stats tracks the balance. On the universe's wire-buffer arena every
// buffer is back before Rewind, and the universe fails the visit
// otherwise; a transport's send-side arena also counts what connections
// that outlive the visit still hold.
type Arena struct {
	free    [numClasses]FreeList[[]byte]
	retired [][]byte
	stats   ArenaStats
}

// ArenaStats counts arena traffic. Gets/Puts/News are cumulative;
// InUse is the current outstanding balance (Gets - Puts) and HighWater
// its maximum, i.e. the steady-state working set in buffers.
type ArenaStats struct {
	Gets      uint64
	Puts      uint64
	News      uint64
	InUse     int64
	HighWater int64
}

// growFloor is the smallest capacity Grow hands out.
const growFloor = 4 << 10

// Get returns a buffer with len(buf) == n. Contents are arbitrary.
func (a *Arena) Get(n int) []byte {
	a.stats.Gets++
	a.stats.InUse++
	if a.stats.InUse > a.stats.HighWater {
		a.stats.HighWater = a.stats.InUse
	}
	c := classFor(n)
	if c < 0 {
		a.stats.News++
		return make([]byte, n)
	}
	if buf, ok := a.free[c].Get(); ok {
		return buf[:n]
	}
	a.stats.News++
	buf := make([]byte, 1<<(minClassBits+c))
	return buf[:n]
}

// Put returns a buffer for immediate reuse. Buffers whose capacity is
// not an exact size class (over-max Gets) are dropped for the collector
// but still counted, so the Gets/Puts balance stays meaningful.
func (a *Arena) Put(buf []byte) {
	a.stats.Puts++
	a.stats.InUse--
	a.recycle(buf)
}

func (a *Arena) recycle(buf []byte) {
	if c := classFor(cap(buf)); c >= 0 && cap(buf) == 1<<(minClassBits+c) {
		a.free[c].Put(buf[:cap(buf)])
	}
}

// Grow returns a buffer that starts with a copy of live and has
// capacity at least need: the next power of two, growFloor minimum, so a
// buffer Grow handed out at least doubles when it overflows. It is the
// QUIC stream send buffer's size-and-copy step and touches nothing else:
// the array live sits in stays with its owner, who Puts it once no
// in-flight frame aliases it.
func (a *Arena) Grow(live []byte, need int) []byte {
	newCap := growFloor
	for newCap < need {
		newCap *= 2
	}
	nb := a.Get(newCap)[:len(live)]
	copy(nb, live)
	return nb
}

// Retire quarantines a buffer that in-flight wire copies may still
// alias; it is never handed out again before Rewind. Only a QUIC
// teardown with stream bytes in flight needs it.
func (a *Arena) Retire(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	a.stats.Puts++
	a.stats.InUse--
	a.retired = append(a.retired, buf)
}

// Stats returns a snapshot of the arena counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// Rewind marks a visit boundary: all wire copies are dead (the scheduler
// has drained), so whatever was retired joins the free lists, and every
// buffer should have been returned. It reports the outstanding balance —
// non-zero means a leak (or a buffer retained across visits, which the
// ownership rule forbids). The free lists are kept, not released: that
// is the point of the arena.
func (a *Arena) Rewind() int64 {
	for i, buf := range a.retired {
		a.recycle(buf)
		a.retired[i] = nil
	}
	a.retired = a.retired[:0]
	return a.stats.InUse
}
