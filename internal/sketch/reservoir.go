package sketch

// Reservoir is a deterministic fixed-capacity uniform sample (Vitter's
// Algorithm R) driven by a private splitmix64 stream: the same seed and
// offer sequence always select the same sample, regardless of what any
// other component draws — the property that keeps sampled HAR retention
// byte-identical across campaign worker counts.
type Reservoir[T any] struct {
	capacity int
	seen     int64
	items    []reservoirItem[T]
	rng      uint64
}

type reservoirItem[T any] struct {
	seq int64
	v   T
}

// NewReservoir returns an empty reservoir keeping at most capacity
// items, with all randomness derived from seed.
func NewReservoir[T any](capacity int, seed uint64) *Reservoir[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Reservoir[T]{capacity: capacity, rng: seed}
}

// next advances the splitmix64 stream.
func (r *Reservoir[T]) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Offer presents one item to the reservoir. The i-th offer survives
// with probability capacity/i (uniform without replacement). The modulo
// draw carries negligible bias at simulation scales and, unlike
// rejection sampling, consumes exactly one stream step per offer — a
// fixed draw schedule is what makes the sample order-independent of
// everything else in the shard.
func (r *Reservoir[T]) Offer(v T) {
	r.seen++
	if len(r.items) < r.capacity {
		r.items = append(r.items, reservoirItem[T]{seq: r.seen, v: v})
		return
	}
	if r.capacity == 0 {
		return
	}
	if j := int64(r.next() % uint64(r.seen)); j < int64(r.capacity) {
		r.items[j] = reservoirItem[T]{seq: r.seen, v: v}
	}
}

// Items returns the retained sample in offer order.
func (r *Reservoir[T]) Items() []T {
	out := make([]T, len(r.items))
	idx := make([]int, len(r.items))
	for i := range idx {
		idx[i] = i
	}
	// Slots are replaced in place, so slot order is not offer order;
	// sort by the recorded offer sequence instead.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && r.items[idx[j-1]].seq > r.items[idx[j]].seq; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	for i, k := range idx {
		out[i] = r.items[k].v
	}
	return out
}
