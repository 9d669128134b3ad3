package simnet

import (
	"errors"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	s.After(time.Millisecond, func() {
		s.After(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 2*time.Millisecond {
		t.Fatalf("nested event fired at %v, want [2ms]", fired)
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	var s Scheduler
	s.After(5*time.Millisecond, func() {
		s.At(time.Millisecond, func() {
			if s.Now() != 5*time.Millisecond {
				t.Fatalf("past event ran at %v, want clamped to 5ms", s.Now())
			}
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerEventBudget(t *testing.T) {
	var s Scheduler
	s.MaxEvents = 10
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(0, tick)
	n, err := s.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if n != 10 {
		t.Fatalf("ran %d events, want 10", n)
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	ran := 0
	s.After(1*time.Millisecond, func() { ran++ })
	s.After(2*time.Millisecond, func() { ran++ })
	s.After(5*time.Millisecond, func() { ran++ })
	n := s.RunUntil(3 * time.Millisecond)
	if n != 2 || ran != 2 {
		t.Fatalf("RunUntil ran %d events, want 2", ran)
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestTimerResetStop(t *testing.T) {
	var s Scheduler
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(2 * time.Millisecond)
	tm.Reset(4 * time.Millisecond) // supersedes
	s.After(1*time.Millisecond, func() {})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("timer fired %d times after double Reset, want 1", fired)
	}
	if s.Now() != 4*time.Millisecond {
		t.Fatalf("fired at %v, want 4ms", s.Now())
	}

	tm.Reset(time.Millisecond)
	tm.Stop()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerArmedDeadline(t *testing.T) {
	var s Scheduler
	tm := s.NewTimer(func() {})
	if tm.Armed() {
		t.Fatal("new timer is armed")
	}
	tm.Reset(7 * time.Millisecond)
	if !tm.Armed() || deadline(tm) != 7*time.Millisecond {
		t.Fatalf("Armed=%v Deadline=%v, want armed at 7ms", tm.Armed(), deadline(tm))
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerResetAt(t *testing.T) {
	var s Scheduler
	var at time.Duration
	tm := s.NewTimer(func() { at = s.Now() })
	tm.ResetAt(9 * time.Millisecond)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 9*time.Millisecond {
		t.Fatalf("fired at %v, want 9ms", at)
	}
}
