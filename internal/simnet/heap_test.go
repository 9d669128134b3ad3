package simnet

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"h3cdn/internal/seqrand"
)

// deadline returns tm's pending expiry, or 0 when it is not armed.
func deadline(tm *Timer) time.Duration {
	if !tm.Armed() {
		return 0
	}
	return tm.at
}

// --- reference model: container/heap over (at, seq), the seed
// implementation this package's monomorphic 4-ary heap replaced. It
// keeps the seed's semantics too: a re-armed or stopped timer leaves a
// canceled item behind, skipped at dispatch.

type refItem struct {
	at       time.Duration
	seq      uint64
	id       int
	fifo     int // route FIFO index, -1 for a standalone item
	canceled bool
}

type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refItem)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// refModel mirrors the scheduler's semantics: seq assigned at every
// push and re-arm, times clamped to now, canceled items skipped at
// dispatch. It also tracks what the real heap should hold: standalone
// items (events, armed timers, deliveries that overtook their FIFO)
// plus one slot per non-empty FIFO.
type refModel struct {
	h          refHeap
	now        time.Duration
	seq        uint64
	live       int
	standalone int
	fifoLen    []int
	fifoTail   []time.Duration
}

func (m *refModel) push(t time.Duration, id, fifo int) *refItem {
	if t < m.now {
		t = m.now
	}
	if fifo >= 0 && m.fifoLen[fifo] > 0 && t < m.fifoTail[fifo] {
		fifo = -1 // out of order with the FIFO's tail: standalone
	}
	it := &refItem{at: t, seq: m.seq, id: id, fifo: fifo}
	m.seq++
	m.live++
	if fifo >= 0 {
		m.fifoLen[fifo]++
		m.fifoTail[fifo] = t
	} else {
		m.standalone++
	}
	heap.Push(&m.h, it)
	return it
}

func (m *refModel) cancel(it *refItem) {
	it.canceled = true
	m.live--
	m.standalone--
}

// peek returns the next live item without dispatching it.
func (m *refModel) peek() *refItem {
	for m.h.Len() > 0 {
		if it := m.h[0]; !it.canceled {
			return it
		}
		heap.Pop(&m.h)
	}
	return nil
}

func (m *refModel) pop() *refItem {
	it := m.peek()
	if it == nil {
		return nil
	}
	heap.Pop(&m.h)
	m.now = it.at
	m.live--
	if it.fifo >= 0 {
		m.fifoLen[it.fifo]--
	} else {
		m.standalone--
	}
	return it
}

func (m *refModel) heapSlots() int {
	n := m.standalone
	for _, l := range m.fifoLen {
		if l > 0 {
			n++
		}
	}
	return n
}

// fuzzFIFOs is the number of route FIFOs a scheduler program drives:
// the arrive FIFOs of three routes and the drop FIFO of the first.
const (
	fuzzFIFOs  = 4
	fuzzTimers = 4
)

// dropTok is a drop-FIFO payload: the network releases it when the loss
// completion runs, which is how the program sees that dispatch.
type dropTok struct {
	id   int
	fire func(int)
}

func (d *dropTok) Release() { d.fire(d.id) }

// runSchedulerProgram decodes prog, two bytes per operation, and runs
// it on a Scheduler (with a Network supplying real route FIFOs) and on
// the reference model, checking after every operation that both agree
// on dispatch order, clock, Pending, each timer's Armed/Deadline, and
// that the heap holds exactly the live standalone entries plus one slot
// per non-empty FIFO.
func runSchedulerProgram(t *testing.T, prog []byte) {
	var s Scheduler
	n := NewNetwork(&s, nil, seqrand.New(1))
	dst := n.AddHost("dst")
	var got, want []int
	// chain maps an id to the FIFO its dispatch enqueues onto, nested
	// inside the dispatching callback (a FIFO's own included). The
	// nested delivery's id and delay derive from its parent's, so the
	// model can replay it when it dispatches the parent.
	chain := map[int]int{}
	const chained = 1 << 20
	nextID := 0
	var fifos [fuzzFIFOs]*fifo
	for i, src := range []Addr{"a", "b", "c"} {
		fifos[i] = &n.AddHost(src).Route("dst").arrive
	}
	fifos[3] = &fifos[0].r.drop

	m := refModel{fifoLen: make([]int, fuzzFIFOs), fifoTail: make([]time.Duration, fuzzFIFOs)}
	var enqueue func(k, id int, at time.Duration)
	fired := func(id int) {
		got = append(got, id)
		if k, ok := chain[id]; ok {
			enqueue(k, id+chained, s.Now()+time.Duration(id%3)*time.Millisecond)
		}
	}
	if err := dst.Bind(80, func(p Packet) { fired(p.Payload.(int)) }); err != nil {
		t.Fatal(err)
	}
	enqueue = func(k, id int, at time.Duration) {
		q := fifos[k]
		d := n.allocDelivery()
		d.dstPort = 80
		if q.drop {
			d.payload = &dropTok{id: id, fire: fired}
		} else {
			d.payload = id
		}
		q.r.ps.inFlight++
		q.push(d, at)
	}
	dispatched := func(it *refItem) {
		want = append(want, it.id)
		if k, ok := chain[it.id]; ok {
			m.push(m.now+time.Duration(it.id%3)*time.Millisecond, it.id+chained, k)
		}
	}

	var timers [fuzzTimers]*Timer
	var items [fuzzTimers]*refItem
	timerID := func(j int) int { return -1 - j }
	for j := range timers {
		timers[j] = s.NewTimer(func() { got = append(got, timerID(j)) })
	}
	fireTimer := func(it *refItem) {
		if it.id < 0 {
			items[-1-it.id] = nil
		}
	}
	arm := func(j int, at time.Duration) {
		if items[j] != nil {
			m.cancel(items[j])
		}
		timers[j].ResetAt(at)
		items[j] = m.push(at, timerID(j), -1)
	}
	stop := func(j int) {
		if items[j] != nil {
			m.cancel(items[j])
			items[j] = nil
		}
	}

	step := func() {
		it := m.pop()
		if ran := s.Step(); ran != (it != nil) {
			t.Fatalf("Step=%v but model item %v", ran, it)
		}
		if it != nil {
			fireTimer(it)
			dispatched(it)
		}
	}

	checked := 0
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%10, int(prog[pc+1])
		near := s.Now() + time.Duration(arg%8-1)*time.Millisecond
		switch op {
		case 0, 1: // standalone push; bit 6 chains a FIFO enqueue
			id := nextID
			nextID++
			if arg&0x40 != 0 {
				chain[id] = (arg >> 3) % fuzzFIFOs
			}
			s.At(near, func() { fired(id) })
			m.push(near, id, -1)
		case 2, 3: // FIFO enqueue in order with the tail
			k := arg % fuzzFIFOs
			at := max(m.fifoTail[k], s.Now()) + time.Duration(arg>>2%3)*time.Millisecond
			id := nextID
			nextID++
			if arg&0x80 != 0 {
				chain[id] = (arg >> 4) % fuzzFIFOs
			}
			enqueue(k, id, at)
			m.push(at, id, k)
		case 4: // FIFO enqueue at any time: may overtake the tail
			id := nextID
			nextID++
			enqueue(arg%fuzzFIFOs, id, near)
			m.push(near, id, arg%fuzzFIFOs)
		case 5: // timer re-armed later (or armed)
			j := arg % fuzzTimers
			arm(j, max(deadline(timers[j]), s.Now())+time.Duration(arg>>2%4)*time.Millisecond)
		case 6: // timer re-armed earlier (clamped to now)
			j := arg % fuzzTimers
			arm(j, deadline(timers[j])-time.Duration(arg>>2%4)*time.Millisecond)
		case 7:
			j := arg % fuzzTimers
			timers[j].Stop()
			stop(j)
		case 8: // Release, then take a (recycled) timer for the slot
			j := arg % fuzzTimers
			timers[j].Release()
			stop(j)
			timers[j] = s.NewTimer(func() { got = append(got, timerID(j)) })
		default:
			if arg&1 != 0 {
				step()
				break
			}
			until := s.Now() + time.Duration(arg>>1%4)*time.Millisecond
			ran := s.RunUntil(until)
			mran := 0
			for it := m.peek(); it != nil && it.at <= until; it = m.peek() {
				fireTimer(m.pop())
				dispatched(it)
				mran++
			}
			m.now = max(m.now, until)
			if ran != mran {
				t.Fatalf("pc %d: RunUntil ran %d events, model %d", pc, ran, mran)
			}
		}
		checkAgainstModel(t, pc, &s, &m, got, want, &checked, timers[:], items[:])
	}
	for s.Pending() > 0 {
		step()
	}
	checkAgainstModel(t, len(prog), &s, &m, got, want, &checked, timers[:], items[:])
	if m.peek() != nil {
		t.Fatal("model has items left after the scheduler drained")
	}
}

// checkAgainstModel compares the scheduler with the model after the
// operation at pc; dispatches before *checked were compared already.
func checkAgainstModel(t *testing.T, pc int, s *Scheduler, m *refModel, got, want []int, checked *int, timers []*Timer, items []*refItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pc %d: dispatched %d events, model %d", pc, len(got), len(want))
	}
	for i := *checked; i < len(got); i++ {
		if got[i] != want[i] {
			t.Fatalf("pc %d: dispatch order diverges at %d: got %d, want %d", pc, i, got[i], want[i])
		}
	}
	*checked = len(got)
	if s.Now() != m.now {
		t.Fatalf("pc %d: clock %v, model %v", pc, s.Now(), m.now)
	}
	if s.Pending() != m.live {
		t.Fatalf("pc %d: Pending=%d, model %d", pc, s.Pending(), m.live)
	}
	for j, tm := range timers {
		it := items[j]
		if tm.Armed() != (it != nil) {
			t.Fatalf("pc %d: timer %d Armed=%v, model %v", pc, j, tm.Armed(), it != nil)
		}
		if it != nil && deadline(tm) != it.at {
			t.Fatalf("pc %d: timer %d Deadline=%v, model %v", pc, j, deadline(tm), it.at)
		}
	}
	if len(s.heap) != m.heapSlots() {
		t.Fatalf("pc %d: heap holds %d slots, want %d live standalone entries and non-empty FIFOs", pc, len(s.heap), m.heapSlots())
	}
}

// schedulerProgram is a random program of n operations.
func schedulerProgram(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, 2*n)
	rng.Read(prog)
	return prog
}

// FuzzScheduler drives the scheduler and the container/heap reference
// model with one program of standalone pushes, in-order and overtaking
// FIFO enqueues (some nested inside dispatch), timer re-arms later and
// earlier, Stop, Release, Step and RunUntil. Times fall on a coarse
// grid, so same-time FIFO ties and past-time clamps are constant.
func FuzzScheduler(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(schedulerProgram(seed, 500))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runSchedulerProgram(t, prog)
	})
}

// TestRouteFIFOSlots asserts the structural claim behind the route
// FIFOs: however many packets are in flight on one route, arrivals and
// loss completions together occupy at most two heap slots, yet every
// packet counts in Pending and dispatches in exact order against
// standalone events.
func TestRouteFIFOSlots(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, symPath(10*time.Millisecond, 8e6, 0.2), seqrand.New(3))
	a := n.AddHost("a")
	var got []int
	if err := n.AddHost("b").Bind(80, func(p Packet) { got = append(got, p.Payload.(int)) }); err != nil {
		t.Fatal(err)
	}
	r := a.Route("b")
	for i := 0; i < 100; i++ {
		r.Send(1, 80, 1000, i) // 1 ms apart on the wire
	}
	if len(s.heap) != 2 {
		t.Fatalf("heap holds %d slots for 100 packets in flight, want 2", len(s.heap))
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending=%d, want 100", s.Pending())
	}
	// A standalone event between two arrivals interleaves exactly.
	mark := -1
	s.At(60*time.Millisecond+time.Microsecond, func() { mark = len(got) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != n.Stats().Delivered || n.Stats().LossDrops == 0 {
		t.Fatalf("delivered %d of %+v; want every non-dropped packet and some drops", len(got), n.Stats())
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("arrivals out of order: %v", got)
		}
	}
	// Packet i arrives at (i+1) ms + 10 ms: ids ≤ 49 came before the mark.
	if mark < 0 || (mark > 0 && got[mark-1] > 49) || (mark < len(got) && got[mark] < 50) {
		t.Fatalf("standalone event ran after %d arrivals %v, want between ids 49 and 50", mark, got)
	}
	if len(s.heap) != 0 || r.arrive.head != nil || r.drop.head != nil {
		t.Fatal("drained route left heap slots or queued deliveries")
	}
}

// TestRouteFIFOSameTimeTies asserts FIFO ordering among same-time
// events across a route FIFO and standalone scheduling: sequence numbers
// are assigned at send, so send order is dispatch order.
func TestRouteFIFOSameTimeTies(t *testing.T) {
	var s Scheduler
	n := NewNetwork(&s, nil, seqrand.New(1)) // zero delay, infinite bandwidth
	a := n.AddHost("a")
	var got []int
	if err := n.AddHost("b").Bind(80, func(p Packet) { got = append(got, p.Payload.(int)) }); err != nil {
		t.Fatal(err)
	}
	r := a.Route("b")
	add := func(i int) func() { return func() { got = append(got, i) } }
	r.Send(1, 80, 100, 0)
	s.At(0, add(1))
	r.Send(1, 80, 100, 2)
	s.At(0, add(3))
	r.Send(1, 80, 100, 4)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time dispatch order %v, want FIFO [0 1 2 3 4]", got)
		}
	}
}

// TestTimerRescheduleInPlace asserts Reset on an armed timer keeps one
// heap slot: later re-arms leave it where it is, earlier ones move it.
func TestTimerRescheduleInPlace(t *testing.T) {
	var s Scheduler
	tm := s.NewTimer(func() {})
	tm.Reset(time.Millisecond)
	for i := 0; i < 100; i++ {
		tm.Reset(time.Duration(i+2) * time.Millisecond)
	}
	tm.Reset(time.Microsecond)
	if len(s.heap) != 1 {
		t.Fatalf("heap holds %d entries after 102 resets of one timer, want 1", len(s.heap))
	}
	if s.Pending() != 1 || deadline(tm) != time.Microsecond {
		t.Fatalf("Pending=%d Deadline=%v, want 1 and 1µs", s.Pending(), deadline(tm))
	}
	tm.Stop()
	if s.Pending() != 0 || len(s.heap) != 0 {
		t.Fatalf("Pending=%d heap=%d after Stop, want 0 and 0", s.Pending(), len(s.heap))
	}
}

// TestTimerLaterRearmRekeyedNotDispatched asserts a timer re-armed
// later fires once, at its new deadline: the stale slot surfacing first
// is re-keyed without running anything, advancing the clock or counting
// toward Run's total.
func TestTimerLaterRearmRekeyedNotDispatched(t *testing.T) {
	var s Scheduler
	fired := 0
	tm := s.NewTimer(func() { fired++ })
	tm.Reset(time.Millisecond)
	tm.Reset(5 * time.Millisecond)
	s.At(3*time.Millisecond, func() {
		if fired != 0 {
			t.Fatal("timer fired at its superseded deadline")
		}
	})
	if n := s.RunUntil(4 * time.Millisecond); n != 1 {
		t.Fatalf("RunUntil(4ms) ran %d events, want 1", n)
	}
	if !tm.Armed() || deadline(tm) != 5*time.Millisecond {
		t.Fatalf("Armed=%v Deadline=%v, want armed at 5ms", tm.Armed(), deadline(tm))
	}
	n, err := s.Run()
	if err != nil || n != 1 || fired != 1 || s.Now() != 5*time.Millisecond {
		t.Fatalf("Run ran %d events (%v), fired %d at %v; want 1, 1 at 5ms", n, err, fired, s.Now())
	}
}
