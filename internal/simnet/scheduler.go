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

// Scheduler owns the virtual clock and the pending event set.
// The zero value is ready to use.
//
// The pending set is a monomorphic 4-ary min-heap (see heap.go) that
// holds only live entries: a standalone event per At/After call and per
// armed Timer, and one event per non-empty route FIFO, keyed by the
// FIFO's head delivery (see fifo). Standalone events are recycled
// through an intrusive free list; Timers and FIFOs own theirs. So
// steady-state dispatch performs no heap allocation.
type Scheduler struct {
	now  time.Duration
	heap []*event // 4-ary min-heap over (at, seq)
	seq  uint64
	live int // scheduled, not-yet-executed events and deliveries
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

// An event is one heap entry's callback, fn(arg). Passing a
// package-level func(any) and a pointer argument lets hot paths
// schedule work without allocating a closure per call; At and After
// box their plain closure as arg of callFunc, which allocates nothing
// either.
type event struct {
	at    time.Duration // heap key; a Timer's own may be later (see heap.go)
	seq   uint64
	fn    func(any)
	arg   any
	index int // heap position; -1 when not in the heap
	kind  eventKind
	next  *event // free-list link
}

// eventKind says who owns an event and so how Step dispatches it.
type eventKind uint8

const (
	// pooled: a standalone event from the free list. Step removes it,
	// recycles it and runs it.
	pooled eventKind = iota
	// timerEvent: a Timer's own event. Step removes it and runs it.
	timerEvent
	// fifoEvent: a route FIFO's persistent event. Step runs it in
	// place; its callback first re-keys it to the FIFO's next
	// head or removes it.
	fifoEvent
)

func callFunc(x any) { x.(func())() }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

func (s *Scheduler) allocEvent() *event {
	ev := s.free
	if ev == nil {
		return &event{index: -1}
	}
	s.free = ev.next
	ev.next = nil
	return ev
}

// releaseEvent returns a pooled event that left the heap to the free
// list. Callers must guarantee no live reference to ev remains.
func (s *Scheduler) releaseEvent(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = s.free
	s.free = ev
}

// pushPooled schedules fn(arg) as a standalone event with key (at, seq).
func (s *Scheduler) pushPooled(at time.Duration, seq uint64, fn func(any), arg any) *event {
	ev := s.allocEvent()
	ev.at, ev.seq = at, seq
	ev.fn, ev.arg = fn, arg
	s.live++
	s.push(ev)
	return ev
}

func (s *Scheduler) schedule(t time.Duration, fn func(any), arg any) *event {
	at, seq := s.key(t)
	return s.pushPooled(at, seq, fn, arg)
}

// At schedules fn at absolute virtual time t. Times in the past run "now".
func (s *Scheduler) At(t time.Duration, fn func()) *event {
	return s.schedule(t, callFunc, fn)
}

// After schedules fn delay after the current virtual time.
func (s *Scheduler) After(delay time.Duration, fn func()) *event {
	return s.schedule(s.now+delay, callFunc, fn)
}

// AfterArg schedules fn(arg) delay after the current virtual time.
func (s *Scheduler) AfterArg(delay time.Duration, fn func(any), arg any) *event {
	return s.schedule(s.now+delay, fn, arg)
}

// cancelEvent removes a pending standalone event from the heap: a
// pooled event or a Timer's. A route FIFO's event cannot be canceled.
// Canceling an event that is not pending is a no-op.
func (s *Scheduler) cancelEvent(ev *event) {
	if ev.index < 0 {
		return
	}
	s.remove(ev.index)
	s.live--
	if ev.kind == pooled {
		s.releaseEvent(ev)
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

// Pending reports the number of scheduled, not-yet-executed events,
// counting each packet in flight once. O(1).
func (s *Scheduler) Pending() int { return s.live }

// Step executes the next event, if any, advancing the clock.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	if !s.settle() {
		return false
	}
	ev := s.heap[0]
	s.now = ev.at
	s.live--
	switch ev.kind {
	case fifoEvent:
		ev.fn(ev.arg)
	case timerEvent:
		s.remove(0)
		ev.fn(ev.arg)
	default:
		s.remove(0)
		fn, arg := ev.fn, ev.arg
		s.releaseEvent(ev)
		fn(arg)
	}
	s.executed++
	return true
}

// Run executes events until none remain or the event budget (if set) is
// exhausted. It returns the number of events executed.
func (s *Scheduler) Run() (int, error) {
	n := 0
	for s.Step() {
		n++
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
	for s.settle() && s.heap[0].at <= t {
		s.Step()
		n++
	}
	if s.now < t {
		s.now = t
	}
	return n
}
