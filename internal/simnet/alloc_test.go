package simnet

import (
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

// TestEventFreeList asserts that steady-state dispatch reuses event
// structs rather than allocating.
func TestEventFreeList(t *testing.T) {
	var s Scheduler
	fn := func(any) {}
	// Prime the free list and the heap's backing array.
	s.AfterArg(0, fn, nil)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterArg(time.Microsecond, fn, nil)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per schedule+dispatch, want 0", allocs)
	}
}

// TestCanceledEventsRecycled asserts a canceled event and a stopped
// timer leave the heap at once, instead of waiting there as tombstones,
// and that the canceled event returns to the free list.
func TestCanceledEventsRecycled(t *testing.T) {
	var s Scheduler
	ev := s.After(time.Millisecond, func() { t.Fatal("canceled event ran") })
	s.After(2*time.Millisecond, func() {})
	s.cancelEvent(ev)
	if len(s.heap) != 1 || s.free != ev {
		t.Fatalf("after cancel: heap holds %d slots, free list head %p; want 1 and the canceled event", len(s.heap), s.free)
	}

	tm := s.NewTimer(func() { t.Fatal("stopped timer fired") })
	tm.Reset(30 * time.Second)
	tm.Reset(40 * time.Second) // a later re-arm leaves a lagging slot
	tm.Stop()
	if len(s.heap) != 1 || s.Pending() != 1 {
		t.Fatalf("after Stop: heap holds %d slots, Pending=%d; want 1 and 1", len(s.heap), s.Pending())
	}
	s.RunUntil(5 * time.Millisecond)
	if len(s.heap) != 0 {
		t.Fatalf("%d slots still queued after RunUntil", len(s.heap))
	}
}

// TestRouteSendAllocationFree asserts a steady-state Route.Send plus the
// dispatch of its arrival allocates nothing: the delivery record is
// recycled and the route's FIFO owns its heap event.
func TestRouteSendAllocationFree(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(time.Millisecond, 100e6, 0), seqrand.New(1))
	if err := n.AddHost("b").Bind(80, func(Packet) {}); err != nil {
		t.Fatal(err)
	}
	r := n.AddHost("a").Route("b")
	r.Send(1, 80, 1200, nil)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Send(1, 80, 1200, nil)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per Route.Send+Step, want 0", allocs)
	}
}

// TestTimerRecycled asserts Release returns timers to the scheduler pool.
func TestTimerRecycled(t *testing.T) {
	var s Scheduler
	a := s.NewTimer(func() {})
	a.Reset(time.Millisecond)
	a.Release()
	if a.Armed() {
		t.Fatal("released timer still armed")
	}
	b := s.NewTimer(func() {})
	if a != b {
		t.Fatal("NewTimer did not reuse the released timer")
	}
	// The recycled timer must be fully functional.
	fired := false
	c := s.NewTimer(func() { fired = true })
	c.Reset(time.Millisecond)
	b.Reset(2 * time.Millisecond)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer created after recycling never fired")
	}
}

// TestTimerArmAllocationFree asserts Reset/fire cycles allocate nothing
// once the free lists are primed.
func TestTimerArmAllocationFree(t *testing.T) {
	var s Scheduler
	tm := s.NewTimer(func() {})
	tm.Reset(0)
	s.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Microsecond)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per Reset+fire, want 0", allocs)
	}
}
