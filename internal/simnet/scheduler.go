// Package simnet implements a deterministic discrete-event network
// simulator: a virtual clock with an event heap, hosts addressable by
// string addresses and integer ports, and directed paths with propagation
// delay, bandwidth serialization, bounded queues, and Bernoulli loss.
//
// All protocol endpoints in this repository (internal/tcpsim,
// internal/quicsim, ...) are callback state machines driven by a single
// Scheduler; a simulation run uses no goroutines, so identical seeds yield
// identical traces.
package simnet

import (
	"errors"
	"time"
)

// ErrStopped is reported by Run when the scheduler was stopped explicitly.
var ErrStopped = errors.New("simnet: scheduler stopped")

// Scheduler owns the virtual clock and the pending event set.
// The zero value is ready to use.
//
// The pending set is a monomorphic 4-ary min-heap (see heap.go) plus
// per-queue FIFOs of coalesced events (EventQueue); executed and
// canceled events are recycled through an intrusive free list, so
// steady-state event dispatch performs no heap allocation.
type Scheduler struct {
	now     time.Duration
	heap    []*event // 4-ary min-heap over (at, seq)
	seq     uint64
	live    int // scheduled, non-canceled, not-yet-executed events
	stopped bool
	// executed counts the events that have returned (see Stamp).
	executed uint64

	free       *event // recycled events, linked through event.next
	freeTimers *Timer // recycled timers, linked through Timer.next

	// MaxEvents, when non-zero, bounds a single Run call as a runaway
	// guard; Run returns ErrEventBudget once exceeded.
	MaxEvents int
}

// ErrEventBudget is reported by Run when MaxEvents was exhausted.
var ErrEventBudget = errors.New("simnet: event budget exhausted")

// An event carries either a plain closure (fn) or an argument-passing
// callback (argFn + arg). The latter lets hot paths schedule work without
// allocating a closure per call: a package-level func(any) plus a pointer
// argument stay allocation-free.
type event struct {
	at       time.Duration
	seq      uint64 // tie-break: FIFO among same-time events
	fn       func()
	argFn    func(any)
	arg      any
	canceled bool
	index    int         // heap index; -1 when popped or FIFO-pending
	q        *EventQueue // owning queue, nil for standalone events
	next     *event      // FIFO link while queued; free-list link after
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

func (s *Scheduler) allocEvent() *event {
	ev := s.free
	if ev == nil {
		return &event{}
	}
	s.free = ev.next
	ev.next = nil
	return ev
}

// releaseEvent returns a popped event to the free list. Callers must
// guarantee no live reference to ev remains (Timer clears its reference
// before its callback runs; nothing else retains events).
func (s *Scheduler) releaseEvent(ev *event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	ev.canceled = false
	ev.next = s.free
	s.free = ev
}

func (s *Scheduler) schedule(t time.Duration, fn func(), argFn func(any), arg any) *event {
	if t < s.now {
		t = s.now
	}
	ev := s.allocEvent()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	s.seq++
	s.live++
	s.pushHeap(ev)
	return ev
}

// At schedules fn at absolute virtual time t. Times in the past run "now".
func (s *Scheduler) At(t time.Duration, fn func()) *event {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn delay after the current virtual time.
func (s *Scheduler) After(delay time.Duration, fn func()) *event {
	return s.schedule(s.now+delay, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute virtual time t. Passing a
// package-level function and a pointer argument avoids the per-call
// closure allocation of At.
func (s *Scheduler) AtArg(t time.Duration, fn func(any), arg any) *event {
	return s.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) delay after the current virtual time.
func (s *Scheduler) AfterArg(delay time.Duration, fn func(any), arg any) *event {
	return s.schedule(s.now+delay, nil, fn, arg)
}

// cancelEvent marks a pending event canceled. The event stays where it
// is (heap or queue FIFO) and is recycled lazily when it surfaces.
func (s *Scheduler) cancelEvent(ev *event) {
	if !ev.canceled {
		ev.canceled = true
		s.live--
	}
}

// A Stamp marks a moment on one scheduler by the number of events that
// had returned.
type Stamp struct {
	s *Scheduler
	n uint64
}

// Stamp marks now.
func (s *Scheduler) Stamp() Stamp { return Stamp{s, s.executed} }

// Returned reports whether an event has returned since st was taken —
// for a stamp taken inside an event, that event itself — or st comes
// from another scheduler: a finished epoch's, which will never dispatch
// again.
func (s *Scheduler) Returned(st Stamp) bool { return st.s != s || st.n < s.executed }

// Stop makes Run return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending reports the number of live (non-canceled) scheduled events,
// including events coalesced on queues. O(1).
func (s *Scheduler) Pending() int { return s.live }

// Step executes the next event, if any, advancing the clock.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		ev := s.popMin()
		s.advanceQueue(ev)
		if ev.canceled {
			s.releaseEvent(ev)
			continue
		}
		s.live--
		s.now = ev.at
		if ev.argFn != nil {
			fn, arg := ev.argFn, ev.arg
			s.releaseEvent(ev)
			fn(arg)
		} else {
			fn := ev.fn
			s.releaseEvent(ev)
			fn()
		}
		s.executed++
		return true
	}
	return false
}

// Run executes events until none remain, Stop is called, or the event
// budget (if set) is exhausted. It returns the number of events executed.
func (s *Scheduler) Run() (int, error) {
	s.stopped = false
	n := 0
	for s.Step() {
		n++
		if s.stopped {
			return n, ErrStopped
		}
		if s.MaxEvents > 0 && n >= s.MaxEvents {
			return n, ErrEventBudget
		}
	}
	return n, nil
}

// RunUntil executes events with time ≤ t, then sets the clock to t.
// It returns the number of events executed.
func (s *Scheduler) RunUntil(t time.Duration) int {
	n := 0
	for len(s.heap) > 0 {
		next := s.heap[0]
		if next.canceled {
			ev := s.popMin()
			s.advanceQueue(ev)
			s.releaseEvent(ev)
			continue
		}
		if next.at > t {
			break
		}
		if s.Step() {
			n++
		}
	}
	if s.now < t {
		s.now = t
	}
	return n
}
