package bufpool

import (
	"testing"

	"h3cdn/internal/simnet"
)

type rec struct{ live bool }

func resetRec(r *rec) { *r = rec{} }

// TestRecyclerFreesAfterTheRetiringEvent pins the death rule: a value
// retired inside an event is not handed out while that event runs, is
// handed out reset from the next event on, and a value retired between
// events waits for the next event to return. A value retired under
// another scheduler — a finished epoch's — is free at once.
func TestRecyclerFreesAfterTheRetiringEvent(t *testing.T) {
	sched := &simnet.Scheduler{}
	var r Recycler[*rec]
	v := &rec{live: true}
	var sameEvent, nextEvent *rec
	sched.After(0, func() {
		r.Retire(v, sched)
		sameEvent, _ = r.Get(sched, resetRec)
	})
	sched.After(1, func() { nextEvent, _ = r.Get(sched, resetRec) })
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if sameEvent != nil {
		t.Fatal("handed out inside the event that retired it")
	}
	if nextEvent != v || v.live {
		t.Fatalf("next event got %p (live %v), want %p reset", nextEvent, v.live, v)
	}

	v.live = true
	r.Retire(v, sched) // between events
	if got, _ := r.Get(sched, resetRec); got != nil {
		t.Fatal("retired between events, handed out before another event ran")
	}
	sched.After(0, func() {})
	if _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.Get(sched, resetRec); got != v || v.live {
		t.Fatal("not free once the next event returned")
	}

	v.live = true
	r.Retire(v, sched)
	if got, _ := r.Get(&simnet.Scheduler{}, resetRec); got != v || v.live {
		t.Fatal("a value retired under another scheduler is not free")
	}
}

// TestRecyclerDyingListStaysBounded retires and frees values one event
// at a time: the retired list must not grow with the number of values
// that passed through it.
func TestRecyclerDyingListStaysBounded(t *testing.T) {
	sched := &simnet.Scheduler{}
	var r Recycler[*rec]
	for i := 0; i < 1000; i++ {
		sched.After(0, func() {
			v, ok := r.Get(sched, resetRec)
			if !ok {
				v = &rec{}
			}
			r.Retire(v, sched)
		})
		if _, err := sched.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(r.dying) > 4 || len(r.free) > 1 {
		t.Fatalf("retired list cap %d, free %d after 1000 round trips", cap(r.dying), len(r.free))
	}
}

// TestRecyclerPromoteFreesEveryRetired: Promote frees values whose
// retiring event is still running, reset, and leaves no retired entry
// that could pin one.
func TestRecyclerPromoteFreesEveryRetired(t *testing.T) {
	sched := &simnet.Scheduler{}
	var r Recycler[*rec]
	a, b := &rec{live: true}, &rec{live: true}
	r.Retire(a, sched)
	r.Retire(b, sched)
	r.Promote(resetRec)
	if a.live || b.live || len(r.free) != 2 || len(r.dying) != 0 || r.head != 0 {
		t.Fatalf("after Promote: a.live %v, b.live %v, free %d, dying %d", a.live, b.live, len(r.free), len(r.dying))
	}
	for _, d := range r.dying[:cap(r.dying)] {
		if d.v != nil {
			t.Fatal("a promoted value is still reachable from the retired list")
		}
	}
	if got, _ := r.Get(sched, resetRec); got != b {
		t.Fatalf("Get after Promote = %p, want the last retired %p", got, b)
	}
}
