package sim

import (
	"fmt"
	"time"
)

// Proc is a sequential simulated process. Its body runs as a coroutine
// that the kernel resumes from its event loop: a proc runs until it
// blocks on a kernel primitive (Sleep, Queue.Pop, Resource.Acquire, ...),
// which switches straight back to the event that resumed it, and only
// then does the kernel dispatch the next event. At most one body runs at
// any real instant, and a hand-off is a direct coroutine switch that
// never goes through the Go scheduler. This gives straight-line,
// blocking-style OS code with fully deterministic interleaving.
type Proc struct {
	k    *Kernel
	name string
	slot int // index in k.procs while live
	// next resumes the body until it parks or returns; yield, called
	// from inside the body, suspends it. launch sets both.
	next    func() (struct{}, bool)
	yield   func(struct{}) bool
	killed  bool
	started bool // launch has run: only a started proc can be unparked
	done    bool

	// unparkFn is p.unpark bound once at creation, so the Sleep and
	// UnparkExternal hot paths schedule it without allocating a fresh
	// method-value closure per wake-up.
	unparkFn func()
}

// killSignal is panicked inside a proc body to unwind it when the proc
// has been killed while parked.
type killSignal struct{ p *Proc }

// Go starts fn as a new simulated process at the current virtual time.
// The returned Proc may be used immediately (e.g. passed to Kill), but
// fn itself begins executing when the start event is dispatched.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: Go with nil function")
	}
	p := &Proc{k: k, name: name, slot: len(k.procs)}
	p.unparkFn = p.unpark
	k.procs = append(k.procs, p)
	k.Schedule(0, func() { p.launch(fn) })
	return p
}

// finish marks the proc done and swap-removes it from the kernel's live
// set, so the kernel no longer references it.
func (p *Proc) finish() {
	p.done = true
	procs := p.k.procs
	last := len(procs) - 1
	procs[p.slot] = procs[last]
	procs[p.slot].slot = p.slot
	procs[last] = nil
	p.k.procs = procs[:last]
}

// Name reports the name the proc was created with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep blocks the proc for d of virtual time. Zero and negative
// durations yield the processor for one event-queue round trip, which
// still provides a deterministic scheduling point.
//
// Fast path: when every queued event is strictly later than the wake
// time, the wake event would be dispatched immediately after parking
// with nothing running in between, so Sleep just advances the clock in
// place. That elides the wake event and both coroutine switches (park
// and unpark) that otherwise dominate the cost of fine-grained sleeps;
// observable ordering is unchanged because no other event could have
// interleaved.
// The path also applies under a RunUntil deadline as long as the wake
// time does not overshoot it (RunUntil dispatches events at exactly the
// deadline, so waking at k.deadline in place is equivalent); cluster
// lanes run entirely inside RunUntil windows and would otherwise lose
// the fast path for every sleep.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	if d < 0 {
		d = 0
	}
	if (!k.hasDL || k.now+d <= k.deadline) && !k.stopped && k.nowq.empty() && (len(k.events.h) == 0 || k.events.h[0].at > k.now+d) {
		if k.cur != p {
			panic(fmt.Sprintf("sim: proc %q sleeping while not current", p.name))
		}
		k.now += d
		return
	}
	k.Schedule(d, p.unparkFn)
	p.park()
}

// Yield reschedules the proc at the current instant, letting any other
// events queued for this time run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill marks the proc dead. If it is parked it unwinds the next time it
// would resume; if it is live on the event heap its pending resumption
// turns into the unwind. Killing a finished proc is a no-op. Kill may be
// called from kernel or proc context (but not on oneself).
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	if p.k.cur == p {
		panic("sim: proc killing itself; return from the body instead")
	}
	p.killed = true
	// If the proc is parked waiting on some queue/resource, nothing will
	// resume it unless we do. A spurious resume for a proc that was
	// about to be resumed anyway is harmless: unpark on a done proc is a
	// no-op, and killSignal unwinds exactly once.
	p.k.Schedule(0, func() {
		if !p.done {
			p.unpark()
		}
	})
}

// Park blocks the proc until some other party calls UnparkExternal. It
// is a low-level escape hatch used by higher-level primitives (Queue,
// Resource, Gate) in this package and by tests.
func (p *Proc) Park() { p.park() }

// UnparkExternal schedules the proc to resume at the current virtual
// time. It must pair with a Park.
func (p *Proc) UnparkExternal() {
	p.k.Schedule(0, p.unparkFn)
}
