package sim

import "time"

// Queue is an unbounded FIFO of items passed between simulated
// processes, the moral equivalent of a message queue inside the
// simulated OS. Push never blocks; Pop blocks the calling proc until an
// item is available. Items are delivered in FIFO order and waiters are
// served in FIFO order.
//
// Both the item buffer and the waiter list are rings, and waiters
// retired by delivery are kept on a free list, so steady-state
// producer/consumer traffic allocates nothing per message, and a queue
// that never drains stops growing at its peak depth.
type Queue[T any] struct {
	k       *Kernel
	items   ring[T]
	waiters ring[*qwaiter[T]]
	free    []*qwaiter[T]
}

type qwaiter[T any] struct {
	p         *Proc
	item      T
	delivered bool
	cancelled bool // timeout fired or proc killed before delivery

	// gen distinguishes successive uses of a recycled waiter. A
	// PopTimeout closure captures the generation it was armed for and
	// does nothing if the waiter has since been recycled, so timed
	// waiters can go back on the free list like any other.
	gen uint64
}

// NewQueue returns an empty queue bound to kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len reports the number of buffered (undelivered) items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Waiting reports the number of procs currently blocked in Pop.
func (q *Queue[T]) Waiting() int {
	n := 0
	for i := 0; i < q.waiters.len(); i++ {
		if w := q.waiters.at(i); !w.cancelled && !w.p.killed && !w.p.done {
			n++
		}
	}
	return n
}

// getWaiter takes a waiter from the free list or allocates one.
func (q *Queue[T]) getWaiter(p *Proc) *qwaiter[T] {
	if n := len(q.free); n > 0 {
		w := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*w = qwaiter[T]{p: p, gen: w.gen + 1}
		return w
	}
	return &qwaiter[T]{p: p}
}

// putWaiter recycles a waiter that the queue no longer references. A
// stale PopTimeout closure may still hold the pointer, but it checks
// the generation before acting, so recycling is always safe.
func (q *Queue[T]) putWaiter(w *qwaiter[T]) {
	q.free = append(q.free, w)
}

// Push appends v. If a proc is blocked in Pop, the item is handed
// directly to the longest-waiting live one and that proc is scheduled to
// resume at the current virtual time.
func (q *Queue[T]) Push(v T) {
	for q.waiters.len() > 0 {
		w := q.waiters.pop()
		if w.cancelled || w.p.killed || w.p.done {
			q.putWaiter(w)
			continue
		}
		w.item = v
		w.delivered = true
		w.p.UnparkExternal()
		return
	}
	q.items.push(v)
}

// Pop removes and returns the head item, blocking p until one exists.
func (q *Queue[T]) Pop(p *Proc) T {
	for {
		if q.Len() > 0 {
			return q.items.pop()
		}
		w := q.getWaiter(p)
		q.waiters.push(w)
		p.park()
		if w.delivered {
			v := w.item
			q.putWaiter(w)
			return v
		}
		// Spurious resume (e.g. from Kill racing a Push) without a
		// delivered item: mark the stale waiter dead — Push skips and
		// recycles it — and retry from the top. The loop (rather than
		// recursion) keeps a pathological wake storm from growing the
		// stack.
		w.cancelled = true
	}
}

// TryPop removes and returns the head item without blocking. The second
// result reports whether an item was available.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// PopTimeout behaves like Pop but gives up after d of virtual time,
// returning ok=false. A timeout of zero or less degenerates to TryPop.
func (q *Queue[T]) PopTimeout(p *Proc, d time.Duration) (T, bool) {
	if d <= 0 {
		return q.TryPop()
	}
	if q.Len() > 0 {
		return q.items.pop(), true
	}
	w := q.getWaiter(p)
	gen := w.gen
	q.waiters.push(w)
	q.k.Schedule(d, func() {
		if w.gen == gen && !w.delivered && !w.cancelled {
			w.cancelled = true
			p.UnparkExternal()
		}
	})
	p.park()
	if w.delivered {
		v := w.item
		q.putWaiter(w)
		return v, true
	}
	// Timed out (or spuriously resumed): the waiter is still queued, so
	// it cannot be recycled here; Push pops, skips, and recycles it.
	w.cancelled = true
	var zero T
	return zero, false
}
