package bufpool

// Arena is a thread-confined, size-classed buffer recycler for callers
// that own a single-goroutine region (a campaign worker, running one
// simulation universe at a time). The zero value is ready to use.
//
// Ownership rule: every buffer obtained from Get goes back through Put
// exactly once, by whoever holds it, as soon as it proves nothing will
// read the buffer again — a wire copy once the network has delivered or
// dropped it, a sender's supplied bytes once they are acknowledged or
// their connection tears down — and the array is reusable at once.
// Stats tracks the balance. On the universe's wire-buffer arena every
// buffer is back at each visit boundary, and the universe fails the
// visit otherwise; a transport's arenas also count what connections
// that outlive the visit still hold.
type Arena struct {
	free  [numClasses]FreeList[[]byte]
	stats ArenaStats
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
	if c := classFor(cap(buf)); c >= 0 && cap(buf) == 1<<(minClassBits+c) {
		a.free[c].Put(buf[:cap(buf)])
	}
}

// Stats returns a snapshot of the arena counters.
func (a *Arena) Stats() ArenaStats { return a.stats }
