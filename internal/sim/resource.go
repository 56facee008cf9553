package sim

import (
	"time"

	"accentmig/internal/obs"
)

// Resource is a counted semaphore with two-class priority admission
// (FIFO within each class), used to model contended hardware such as a
// CPU, a disk arm, or a network interface. High-priority acquisition
// models kernel and system-server work that preempts user computation
// at the next scheduling boundary. Each class queues in its own ring,
// and Release serves the high ring first, so admitting a high-priority
// waiter ahead of a long normal backlog (a demand disk read behind
// queued write-backs) costs O(1) and moves no waiter.
type Resource struct {
	k        *Kernel
	name     string
	capacity int
	inUse    int
	high     ring[*resWaiter]
	normal   ring[*resWaiter]
	free     []*resWaiter // retired waiters, reused to avoid per-wait allocation

	// accounting
	busy      time.Duration // total time units of held capacity
	lastStamp time.Duration
	acquires  uint64

	// waitObs, when set, receives every nonzero queueing delay.
	waitObs func(time.Duration)
}

// resWaiter is one queued claim on a unit: a proc blocked in Acquire,
// or (p nil) a callback queued by AcquireFunc, which carries its wake
// func, its name and its wait start instead of a proc's stack.
type resWaiter struct {
	p       *Proc
	high    bool
	granted bool // the unit was handed off directly by Release

	wake  func()
	who   string
	since time.Duration
}

// getWaiter takes a waiter from the free list or allocates one.
func (r *Resource) getWaiter(p *Proc, high bool) *resWaiter {
	if n := len(r.free); n > 0 {
		w := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		*w = resWaiter{p: p, high: high}
		return w
	}
	return &resWaiter{p: p, high: high}
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(k *Kernel, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: NewResource capacity must be >= 1")
	}
	return &Resource{k: k, name: name, capacity: capacity}
}

// InUse reports the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of queued waiters: procs blocked in
// Acquire and callbacks queued by AcquireFunc. A killed proc's waiter
// counts until Release discards it.
func (r *Resource) QueueLen() int { return r.high.len() + r.normal.len() }

// enqueue queues the waiter at the tail of its class.
func (r *Resource) enqueue(w *resWaiter) {
	if w.high {
		r.high.push(w)
	} else {
		r.normal.push(w)
	}
}

// Acquires reports the number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// BusyTime reports the integral of held units over virtual time, i.e.
// capacity-seconds consumed so far.
func (r *Resource) BusyTime() time.Duration {
	r.account()
	return r.busy
}

func (r *Resource) account() {
	now := r.k.Now()
	r.busy += time.Duration(r.inUse) * (now - r.lastStamp)
	r.lastStamp = now
}

// Acquire blocks p until a unit is available and takes it (normal
// priority).
func (r *Resource) Acquire(p *Proc) { r.acquire(p, false) }

// AcquireHigh is Acquire at system priority: the waiter is admitted
// ahead of all normal-priority waiters.
func (r *Resource) AcquireHigh(p *Proc) { r.acquire(p, true) }

// SetWaitObserver installs (or with nil removes) the queue-wait
// callback, invoked with every nonzero delay spent blocked in Acquire.
func (r *Resource) SetWaitObserver(fn func(time.Duration)) { r.waitObs = fn }

func (r *Resource) acquire(p *Proc, high bool) {
	waitStart := time.Duration(-1)
	for r.inUse >= r.capacity {
		if waitStart < 0 {
			waitStart = r.k.now
		}
		w := r.getWaiter(p, high)
		r.enqueue(w)
		p.park()
		if w.granted {
			// Release handed the unit to us directly (no barging: a
			// releaser that immediately re-acquires must queue behind
			// this grant). inUse was never decremented.
			r.acquires++
			r.free = append(r.free, w)
			r.observeWait(p.name, waitStart)
			return
		}
		// Spurious wakeup; retry. The stale waiter stays queued until
		// Release pops and discards it, so it cannot be recycled here.
	}
	r.account()
	r.inUse++
	r.acquires++
	r.observeWait(p.name, waitStart)
}

// AcquireFunc is Acquire for callback code, which cannot block: wake
// runs holding one unit, at once if a unit is free, otherwise in a
// zero-delay event once Release hands this waiter a unit. The waiter
// queues at normal priority in the same queue as procs, under the same
// FIFO and no-barging rules, so the grant lands when a proc's wake-up
// would have. who names the waiter in the flight recorder, as a proc's
// name does.
func (r *Resource) AcquireFunc(who string, wake func()) {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		r.acquires++
		wake()
		return
	}
	w := r.getWaiter(nil, false)
	w.wake, w.who, w.since = wake, who, r.k.now
	r.enqueue(w)
}

// grantFunc runs in the zero-delay event Release schedules for a
// callback waiter it handed a unit to.
func (r *Resource) grantFunc(w *resWaiter) {
	wake, who, since := w.wake, w.who, w.since
	*w = resWaiter{}
	r.acquires++
	r.free = append(r.free, w)
	r.observeWait(who, since)
	wake()
}

// observeWait reports the queueing delay since waitStart (negative:
// none) to the wait observer and the flight recorder.
func (r *Resource) observeWait(who string, waitStart time.Duration) {
	if waitStart < 0 {
		return
	}
	d := r.k.now - waitStart
	if d <= 0 {
		return
	}
	if r.waitObs != nil {
		r.waitObs(d)
	}
	if r.k.Tracing() {
		r.k.Emit(obs.Event{
			Kind:    obs.QueueWait,
			Machine: machineOf(r.name),
			Proc:    who,
			Name:    r.name,
			Dur:     d,
		})
	}
}

// Release returns one unit and hands it to the longest-waiting waiter,
// if any: a proc is scheduled to resume, a callback waiter's wake func
// to run, at the current virtual time. It may be called from kernel or
// proc context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	r.account()
	// Hand the unit directly to the longest-waiting live waiter, so the
	// releaser cannot barge back in ahead of it; only if no waiter is
	// live does the unit become free.
	for r.QueueLen() > 0 {
		var w *resWaiter
		if r.high.len() > 0 {
			w = r.high.pop()
		} else {
			w = r.normal.pop()
		}
		if w.p == nil {
			r.k.Schedule(0, func() { r.grantFunc(w) })
			return
		}
		if w.p.killed || w.p.done {
			r.free = append(r.free, w)
			continue
		}
		w.granted = true
		w.p.UnparkExternal()
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d of virtual time, and
// releases it. This is the common "spend CPU" idiom: contention shows up
// as queueing delay before the hold begins.
func (r *Resource) Use(p *Proc, d time.Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
	r.observeHold(p, d)
}

// UseHigh is Use at system priority, for kernel and server work that
// must not starve behind user compute slices.
func (r *Resource) UseHigh(p *Proc, d time.Duration) {
	r.AcquireHigh(p)
	p.Sleep(d)
	r.Release()
	r.observeHold(p, d)
}

// observeHold records one completed hold span in the flight recorder
// (the raw material of utilization timelines and critical-path blame).
// With no sink installed it costs one nil check, preserving the
// zero-allocation discipline of the untraced hot path.
func (r *Resource) observeHold(p *Proc, d time.Duration) {
	if d <= 0 || !r.k.Tracing() {
		return
	}
	r.k.Emit(obs.Event{
		Kind:    obs.ResourceHold,
		Machine: machineOf(r.name),
		Proc:    p.name,
		Name:    r.name,
		Dur:     d,
	})
}

// Gate is a boolean latch: procs can wait until it opens; opening wakes
// every waiter. Reusable after Close.
type Gate struct {
	k       *Kernel
	open    bool
	waiters []*Proc
}

// NewGate returns a closed gate.
func NewGate(k *Kernel) *Gate { return &Gate{k: k} }

// Opened reports whether the gate is open.
func (g *Gate) Opened() bool { return g.open }

// Open opens the gate and wakes all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	ws := g.waiters
	// Keep the backing array for the next Close/Wait cycle; nothing can
	// append while this (single-threaded, synchronous) loop runs.
	g.waiters = g.waiters[:0]
	for _, w := range ws {
		if !w.killed && !w.done {
			w.UnparkExternal()
		}
	}
}

// Close shuts the gate again; future Wait calls block.
func (g *Gate) Close() { g.open = false }

// Wait blocks p until the gate is open. Returns immediately if open.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.waiters = append(g.waiters, p)
		p.park()
	}
}
