package obs

// A Ring keeps the most recent values pushed into it, overwriting the
// oldest once full and counting what it overwrote: the snapshot store's
// epoch history, the stage trace's roots and the SLO engine's completed
// buckets. It carries no lock — every
// holder already has one — and a nil *Ring reads as empty. Hand-offs
// between goroutines are channels, not Rings.
type Ring[T any] struct {
	buf     []T
	head    int // oldest value's position once the ring is full
	dropped int64
}

// NewRing returns a ring holding at most capacity values (at least one).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, overwriting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Dropped returns how many values have been overwritten.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Items returns a copy of the held values, oldest first.
func (r *Ring[T]) Items() []T {
	if r == nil {
		return nil
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
