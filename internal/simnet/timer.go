package simnet

import "time"

// Timer is a cancellable, resettable one-shot timer bound to a Scheduler.
// It mirrors the subset of time.Timer semantics protocol state machines
// need (RTO, PTO, idle timeouts) under virtual time.
//
// A Timer owns its scheduler event, so arming it allocates nothing and
// stopping it takes that event out of the heap.
type Timer struct {
	ev event // in the heap iff armed
	// at, seq is the timer's key; ev's lags it after a later re-arm.
	at   time.Duration
	seq  uint64
	s    *Scheduler
	fn   func()
	next *Timer // free-list link
}

func timerFire(x any) { x.(*Timer).fn() }

// NewTimer returns a stopped timer that will invoke fn when it fires.
// Timers released via Release are recycled.
func (s *Scheduler) NewTimer(fn func()) *Timer {
	t := s.freeTimers
	if t == nil {
		t = &Timer{s: s}
		t.ev = event{fn: timerFire, arg: t, index: -1, kind: timerEvent}
	} else {
		s.freeTimers = t.next
		t.next = nil
	}
	t.fn = fn
	return t
}

// Release stops the timer and returns it to the scheduler's pool for
// reuse. The caller must drop every reference; using a released timer is
// a bug.
func (t *Timer) Release() {
	t.Stop()
	t.fn = nil
	t.next = t.s.freeTimers
	t.s.freeTimers = t
}

// Reset (re)arms the timer to fire delay from now, superseding any
// pending expiry.
func (t *Timer) Reset(delay time.Duration) { t.ResetAt(t.s.now + delay) }

// ResetAt (re)arms the timer to fire at absolute virtual time at, with
// a fresh sequence number: the (at, seq) key that stopping it and
// arming it anew would produce. Moving an armed timer earlier sifts its
// event up at once. Moving it later, as RTO/PTO re-arms mostly do, only
// records the new key: the event stays put, and the scheduler re-keys
// it if it reaches the top first (see settle).
func (t *Timer) ResetAt(at time.Duration) {
	s := t.s
	ev := &t.ev
	t.at, t.seq = s.key(at)
	switch {
	case ev.index < 0:
		ev.at, ev.seq = t.at, t.seq
		s.live++
		s.push(ev)
	case t.at < ev.at:
		ev.at, ev.seq = t.at, t.seq
		s.siftUp(ev.index)
	}
}

// Stop cancels a pending expiry. Stopping a stopped timer is a no-op.
func (t *Timer) Stop() { t.s.cancelEvent(&t.ev) }

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.ev.index >= 0 }
