package sim

// ring is a FIFO over a circular buffer whose length is a power of two.
// push and pop are O(1) and move no other element; the buffer doubles
// (copying its elements once, in order) only when full, so a queue that
// never drains stops allocating once it reaches its peak depth. The
// zero value is an empty ring.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // elements held
}

// len reports the number of elements held.
func (r *ring[T]) len() int { return r.n }

// at returns the i-th oldest element, 0 <= i < len.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(2*len(r.buf), 1))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element. The ring must not be
// empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
