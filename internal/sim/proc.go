package sim

import (
	"fmt"
	"time"
)

// Proc is a sequential simulated process. Its body runs on a dedicated
// goroutine, but the kernel guarantees that at most one proc goroutine
// executes at any real instant: a proc runs until it blocks on a kernel
// primitive (Sleep, Queue.Pop, Resource.Acquire, ...) and only then does
// the kernel dispatch the next event. This gives straight-line,
// blocking-style OS code with fully deterministic interleaving.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	slot   int // index in k.procs while live
	killed bool
	// started is set once launch has run: the proc has a goroutine that
	// is parked or finished, so only a started proc can be unparked.
	started bool
	done    bool

	// unparkFn is p.unpark bound once at creation, so the Sleep and
	// UnparkExternal hot paths schedule it without allocating a fresh
	// method-value closure per wake-up.
	unparkFn func()
}

// killSignal is panicked inside a proc goroutine to unwind it when the
// proc has been killed while parked.
type killSignal struct{ p *Proc }

// Go starts fn as a new simulated process at the current virtual time.
// The returned Proc may be used immediately (e.g. passed to Kill), but
// fn itself begins executing when the start event is dispatched.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: Go with nil function")
	}
	p := &Proc{k: k, name: name, resume: make(chan struct{}), slot: len(k.procs)}
	p.unparkFn = p.unpark
	k.procs = append(k.procs, p)
	k.Schedule(0, func() { p.launch(fn) })
	return p
}

// launch runs in kernel context: it spins up the proc goroutine and
// waits for it to park or finish before returning to the event loop.
func (p *Proc) launch(fn func(p *Proc)) {
	if p.killed {
		p.finish()
		return
	}
	p.started = true
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if ks, ok := r.(killSignal); ok && ks.p == p {
					// Normal unwind of a killed proc.
				} else {
					// Re-panic on the kernel side so the failure
					// surfaces with this goroutine's stack attached.
					p.finish()
					panic(r)
				}
			}
			p.finish()
			p.k.cur = nil
			p.k.yield <- struct{}{}
		}()
		p.k.cur = p
		fn(p)
	}()
	<-p.k.yield
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

// park hands control back to the kernel and blocks until unparked. It
// must be called from the proc's own goroutine.
func (p *Proc) park() {
	if p.k.cur != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	p.k.cur = nil
	p.k.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killSignal{p})
	}
	p.k.cur = p
}

// unpark runs in kernel context and transfers control to the parked
// proc, returning once the proc parks again or finishes.
func (p *Proc) unpark() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.k.yield
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
// place. That elides the two yield-channel round trips (park + unpark)
// that otherwise dominate the cost of fine-grained sleeps; observable
// ordering is unchanged because no other event could have interleaved.
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
