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
//
// An arena also lends the arrays of span lists (AppendSpan), the stream
// byte lists whose bytes it holds: a list has an array only while it
// holds a span and gives it back (PutSpans) when it empties, so the
// arrays scale with the lists that are non-empty at one time, not with
// every list ever made. Spare arrays live in the arena and die with it.
type Arena struct {
	free  [numClasses]FreeList[[]byte]
	spans [numSpanClasses]FreeList[[]Span]
	stats ArenaStats
}

// Span is stream bytes at a stream offset: the element of a span list.
type Span struct {
	Off  uint64
	Data []byte
}

// End returns the offset just past the span's bytes.
func (s Span) End() uint64 { return s.Off + uint64(len(s.Data)) }

// ArenaStats counts arena traffic. Gets/Puts/News are cumulative byte
// buffer counts; InUse is the current outstanding balance (Gets - Puts)
// and HighWater its maximum, i.e. the steady-state working set in
// buffers. Lent counts the span arrays lent and not yet given back.
type ArenaStats struct {
	Gets      uint64
	Puts      uint64
	News      uint64
	InUse     int64
	HighWater int64
	Lent      int64
}

// Get returns a buffer with len(buf) == n. Contents are arbitrary.
func (a *Arena) Get(n int) []byte {
	a.stats.Gets++
	a.stats.InUse++
	if a.stats.InUse > a.stats.HighWater {
		a.stats.HighWater = a.stats.InUse
	}
	c := sizeClass(n, minClassBits, maxClassBits)
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
	if c := sizeClass(cap(buf), minClassBits, maxClassBits); c >= 0 && cap(buf) == 1<<(minClassBits+c) {
		a.free[c].Put(buf[:cap(buf)])
	}
}

// AppendSpan appends v to the span list s, which is nil or lent by a.
// A nil list borrows an array; a full one moves to an array twice its
// size and gives its old one back.
func (a *Arena) AppendSpan(s []Span, v Span) []Span {
	if len(s) == cap(s) {
		a.stats.Lent++
		var t []Span
		c := sizeClass(2*len(s), minSpanBits, maxSpanBits)
		if c < 0 {
			t = make([]Span, 0, 2*len(s))
		} else if t, _ = a.spans[c].Get(); t == nil {
			t = make([]Span, 0, 1<<(minSpanBits+c))
		}
		t = append(t, s...)
		if s != nil {
			a.PutSpans(s)
		}
		s = t
	}
	return append(s, v)
}

// PutSpans takes back the array of a span list that AppendSpan lent. s
// must start where the array does and cover every span in it that is
// not zero; PutSpans zeroes them, so the array pins no buffer.
func (a *Arena) PutSpans(s []Span) {
	a.stats.Lent--
	clear(s)
	if c := sizeClass(cap(s), minSpanBits, maxSpanBits); c >= 0 && cap(s) == 1<<(minSpanBits+c) {
		a.spans[c].Put(s[:0])
	}
}

// Stats returns a snapshot of the arena counters.
func (a *Arena) Stats() ArenaStats { return a.stats }
