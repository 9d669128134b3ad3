package simnet

import "time"

// The scheduler's pending set is a hand-rolled 4-ary min-heap over
// *event ordered by (at, seq). A monomorphic heap beats container/heap
// on this hot path twice over: no `any` boxing and no interface calls
// for Less/Swap, and the 4-ary layout halves tree depth, trading a few
// extra comparisons per level (cheap, cache-resident) for fewer
// cache-missing levels. Events carry their heap index, so in-place
// re-keying and removal are O(log n) without search.
//
// An event's (at, seq) is its place in the heap. For a Timer re-armed
// later that place may precede the timer's own key: the re-arm only
// records the new key, and settle re-keys the event when it reaches
// the top. Sequence numbers are unique, so an event is current exactly
// when its seq equals its timer's.
//
// Index geometry: children of i are 4i+1..4i+4, parent is (i-1)/4.

// less orders events by time, then FIFO by sequence number. Sequence
// numbers are unique, so this is a total order and any correct heap
// dispatches the same sequence.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// key assigns the next (at, seq) key for time t, clamped to now.
func (s *Scheduler) key(t time.Duration) (time.Duration, uint64) {
	if t < s.now {
		t = s.now
	}
	seq := s.seq
	s.seq++
	return t, seq
}

// push inserts ev, which must already carry its (at, seq) key.
func (s *Scheduler) push(ev *event) {
	i := len(s.heap)
	s.heap = append(s.heap, ev)
	ev.index = i
	s.siftUp(i)
}

// remove deletes the event at i, setting its index to -1.
func (s *Scheduler) remove(i int) {
	h := s.heap
	h[i].index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if i == n {
		return
	}
	s.heap[i] = last
	last.index = i
	if i > 0 && less(last, s.heap[(i-1)/4]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// rekeyTop moves the minimum event to the later key (at, seq).
func (s *Scheduler) rekeyTop(at time.Duration, seq uint64) {
	ev := s.heap[0]
	ev.at, ev.seq = at, seq
	s.siftDown(0)
}

// settle re-keys top events that lag their timer's key until the top
// is current, and reports whether any event is left. Re-keying
// dispatches nothing: the clock, Run's count and the event budget do
// not move.
func (s *Scheduler) settle() bool {
	for len(s.heap) > 0 {
		ev := s.heap[0]
		if ev.kind != timerEvent {
			return true
		}
		t := ev.arg.(*Timer)
		if t.seq == ev.seq {
			return true
		}
		s.rekeyTop(t.at, t.seq)
	}
	return false
}

// siftUp restores heap order after the event at i may have become
// smaller than its ancestors.
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// siftDown restores heap order after the event at i may have become
// larger than its descendants.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	ev := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		end := min(c+4, n)
		m := c
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i] = ev
	ev.index = i
}
