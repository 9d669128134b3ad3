package bufpool

import "h3cdn/internal/simnet"

// Recycler is the free list for structs that a caller still unwinding
// may reach after teardown (conns, streams, stream states). Retire parks
// a torn-down value with a simnet.Stamp; Get resets and hands it out
// only once the event that retired it has returned, so the teardown's
// own callers (a close callback, the handler that delivered the fatal
// segment) never see it reset. Whoever retires a value must first have
// cut every reference that outlives the event. A Recycler serves one
// scheduler at a time; values retired under an earlier scheduler count
// as free. The zero value is ready to use.
type Recycler[T any] struct {
	free  FreeList[T]
	dying []dyingEntry[T] // dying[head:] in retirement order
	head  int
}

type dyingEntry[T any] struct {
	v  T
	at simnet.Stamp
}

// Retire parks v until the current event of s has returned (between
// events, until the next one has).
func (r *Recycler[T]) Retire(v T, s *simnet.Scheduler) {
	if len(r.dying) == cap(r.dying) && r.head >= len(r.dying)-r.head {
		// At least half the array is promoted: slide the rest down
		// instead of growing.
		n := copy(r.dying, r.dying[r.head:])
		clear(r.dying[n:])
		r.dying, r.head = r.dying[:n], 0
	}
	r.dying = append(r.dying, dyingEntry[T]{v, s.Stamp()})
}

// Get promotes every value whose retiring event has returned — reset
// on the way — and pops the most recently freed one; ok is false when
// none is free.
func (r *Recycler[T]) Get(s *simnet.Scheduler, reset func(T)) (v T, ok bool) {
	for r.head < len(r.dying) && s.Returned(r.dying[r.head].at) {
		reset(r.dying[r.head].v)
		r.free.Put(r.dying[r.head].v)
		r.dying[r.head] = dyingEntry[T]{}
		r.head++
	}
	if r.head == len(r.dying) {
		r.dying, r.head = r.dying[:0], 0
	}
	return r.free.Get()
}

// Promote resets and frees every retired value whatever its stamp. Call
// it once the schedulers that retired them will run no more events.
func (r *Recycler[T]) Promote(reset func(T)) {
	for _, d := range r.dying[r.head:] {
		reset(d.v)
		r.free.Put(d.v)
	}
	clear(r.dying)
	r.dying, r.head = r.dying[:0], 0
}
