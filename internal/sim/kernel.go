// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event heap. Higher layers
// model operating-system activity in one of two styles:
//
//   - callbacks scheduled at a virtual time (Kernel.Schedule), and
//   - sequential processes (Proc) whose bodies run as coroutines that
//     the kernel resumes from its event loop, exactly one at a time, so
//     that a whole simulation is deterministic and race-free by
//     construction.
//
// Events at the same virtual time fire in scheduling order (FIFO), which
// makes every run of a simulation bit-for-bit reproducible.
//
// A Kernel and everything scheduled on it belong to one goroutine at a
// time (proc bodies run on coroutines that goroutine switches to and
// back from); kernels are cheap, so concurrent simulations each get
// their own Kernel rather than sharing one.
//
// A drained kernel's blocked procs stay parked on their coroutines, and
// those stacks keep everything the simulation built reachable. Callers
// Close a kernel once they have read its results, which unwinds the
// parked procs and lets the whole simulation be collected.
package sim

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/obs"
)

// Kernel is a discrete-event simulation executive. The zero value is not
// usable; create kernels with New.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	nowq   nowRing // zero-delay events for the current instant

	cur *Proc // proc currently executing, nil in callback context
	// procs holds every proc created and not yet finished. Each proc
	// records its slot, so finishing is a swap-remove and a finished
	// proc is never kept reachable.
	procs    []*Proc
	ran      uint64
	deadline time.Duration
	hasDL    bool

	sink    obs.Sink
	evSeq   uint64
	traceID uint64
	lastID  uint64 // the last id NextID handed out
}

// New returns an empty kernel with the clock at zero.
func New() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// EventsRun reports how many events have been dispatched so far. It is
// useful in tests as a cheap progress/forward-motion check. Sleeps that
// take the same-instant fast path (see Proc.Sleep) advance the clock
// without dispatching an event, so this undercounts wake-ups.
func (k *Kernel) EventsRun() uint64 { return k.ran }

// SetSink installs (or with nil removes) the flight-recorder sink.
// Every emission point in the simulation stack is guarded by Tracing,
// so a nil sink costs one pointer comparison on the hot path.
func (k *Kernel) SetSink(s obs.Sink) { k.sink = s }

// Tracing reports whether a flight-recorder sink is installed. Callers
// with any per-event assembly cost (WireBytes sums, name splits) should
// check it before building the event.
func (k *Kernel) Tracing() bool { return k.sink != nil }

// Emit stamps ev with the current virtual time and a sequence number
// and delivers it to the sink, if any.
func (k *Kernel) Emit(ev obs.Event) { k.EmitAt(k.now, ev) }

// EmitAt is Emit with an explicit timestamp, for events reconstructed
// after the fact (e.g. phase spans known only once an ack arrives).
func (k *Kernel) EmitAt(t time.Duration, ev obs.Event) {
	if k.sink == nil {
		return
	}
	ev.T = t
	ev.Seq = k.evSeq
	k.evSeq++
	k.sink.Emit(ev)
}

// NextTraceID hands out a fresh nonzero correlation id for flight-
// recorder events that must be matched up across emission points (one
// logical IPC message's send and receive, however many hops apart).
// Ids are per-kernel and deterministic; callers only mint them when
// tracing, so untraced runs never touch the counter.
func (k *Kernel) NextTraceID() uint64 {
	k.traceID++
	return k.traceID
}

// NextID hands out a fresh nonzero identity: the name of a port, or of
// a segment a backer owes. Each simulation numbers its own, alike on
// every run; the lanes of a Cluster number from disjoint ranges.
func (k *Kernel) NextID() uint64 {
	k.lastID++
	return k.lastID
}

// machineOf derives the owning machine from a dotted component name
// ("src.cpu" -> "src"); names with no dot have no machine.
func machineOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return ""
}

// Schedule arranges for fn to run at Now()+d in kernel (callback)
// context. A negative delay is treated as zero. Events scheduled for the
// same instant run in the order they were scheduled.
//
// Zero-delay events — every wake-up, unpark, and queue hand-off in the
// simulation — bypass the heap entirely and land on a FIFO ring for the
// current instant. This is safe because a heap entry with at == now can
// only have been pushed before the clock reached now (push requires
// d > 0), i.e. it precedes every ring entry in scheduling order; the
// dispatch loop therefore drains heap entries at the current instant
// first, then the ring, which is exactly FIFO scheduling order.
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	if d <= 0 {
		k.nowq.push(fn)
		return
	}
	k.events.push(event{at: k.now + d, seq: k.seq, fn: fn})
	k.seq++
}

// ScheduleAt arranges for fn to run at absolute virtual time t, which
// must not be in the past.
func (k *Kernel) ScheduleAt(t time.Duration, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) in the past (now %v)", t, k.now))
	}
	k.Schedule(t-k.now, fn)
}

// Run dispatches events until the event heap is empty or the deadline
// set by RunUntil is reached. It returns the virtual time at which it
// stopped. Procs that are still blocked when the heap drains remain
// parked, mirroring an idle operating system, until Close reaps them.
func (k *Kernel) Run() time.Duration {
	if k.cur != nil {
		panic("sim: Run called from proc context")
	}
	for {
		// Heap entries already due fire before the now-ring: they were
		// scheduled before the clock reached this instant, so they are
		// earlier in FIFO order than any ring entry (see Schedule).
		if len(k.events.h) > 0 && k.events.h[0].at == k.now {
			e := k.events.pop()
			k.ran++
			e.fn()
			continue
		}
		if fn := k.nowq.pop(); fn != nil {
			k.ran++
			fn()
			continue
		}
		if len(k.events.h) == 0 {
			break
		}
		if k.hasDL && k.events.h[0].at > k.deadline {
			// Leave it queued; a later RunUntil may want it.
			k.now = k.deadline
			k.hasDL = false
			return k.now
		}
		e := k.events.pop()
		k.now = e.at
		k.ran++
		e.fn()
	}
	k.hasDL = false
	return k.now
}

// RunUntil dispatches events with timestamps up to and including t and
// then returns, leaving later events queued and advancing the clock to t
// if the heap drained early. It is the basis for incremental inspection
// of a simulation (e.g. sampling a byte-rate series).
func (k *Kernel) RunUntil(t time.Duration) time.Duration {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) in the past (now %v)", t, k.now))
	}
	k.deadline = t
	k.hasDL = true
	k.Run()
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Idle reports whether no events are pending.
func (k *Kernel) Idle() bool { return len(k.events.h) == 0 && k.nowq.empty() }

// NextEventAt reports the virtual time of the earliest pending event and
// whether one exists. Ring entries are due at the current instant, so a
// non-empty now-ring reports Now(). The cluster scheduler uses this to
// pick each conservative window's start without disturbing the queues.
func (k *Kernel) NextEventAt() (time.Duration, bool) {
	if !k.nowq.empty() {
		return k.now, true
	}
	if len(k.events.h) == 0 {
		return 0, false
	}
	return k.events.h[0].at, true
}

// LiveProcs reports the number of procs that have been created and have
// not yet returned. A nonzero value with an idle heap means those procs
// are blocked for good (e.g. servers waiting for requests); the caller
// Closes the kernel once it has read its results.
func (k *Kernel) LiveProcs() int { return len(k.procs) }

// Close reaps a kernel whose results have been read. Every proc still
// parked is unwound through the Kill path: its deferred calls run and
// its coroutine ends. Procs that never started are finished, and the
// pending events are dropped, so no goroutine keeps the simulation
// reachable. The sink is detached first, so nothing a proc does while
// unwinding reaches a trace. Close panics in proc context; a second
// call finds nothing left to reap.
func (k *Kernel) Close() {
	if k.cur != nil {
		panic("sim: Close called from proc context")
	}
	k.sink = nil
	for n := len(k.procs); n > 0; n = len(k.procs) {
		p := k.procs[n-1]
		p.killed = true
		if p.started {
			p.unpark()
		} else {
			p.finish()
		}
	}
	k.events = eventHeap{}
	k.nowq = nowRing{}
}

// nowRing is a head-indexed FIFO ring of zero-delay events for the
// current instant. The same-instant case dominates dispatch (every
// unpark, queue hand-off, and gate open is a zero-delay event), and a
// ring turns each of those from an O(log n) heap sift into an append
// and an indexed read. The backing array is reused once drained, so
// steady-state traffic allocates nothing.
type nowRing struct {
	fns  []func()
	head int
}

func (r *nowRing) push(fn func()) { r.fns = append(r.fns, fn) }

func (r *nowRing) empty() bool { return r.head == len(r.fns) }

// pop removes and returns the head entry, or nil if the ring is empty.
func (r *nowRing) pop() func() {
	if r.head == len(r.fns) {
		return nil
	}
	fn := r.fns[r.head]
	r.fns[r.head] = nil // release the closure to the GC
	r.head++
	if r.head == len(r.fns) {
		r.fns = r.fns[:0]
		r.head = 0
	}
	return fn
}

// event is a single heap entry, stored by value: scheduling allocates
// nothing beyond the amortized growth of the heap's backing array.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// eventHeap is an index-based 4-ary min-heap ordered by (at, seq). A
// 4-ary layout halves the tree depth of a binary heap, so sift-down —
// the cost that dominates pop — touches fewer cache lines, and the
// by-value storage avoids both the per-event allocation and the
// interface boxing that container/heap would impose on this hot path.
type eventHeap struct {
	h []event
}

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (eh *eventHeap) push(e event) {
	h := append(eh.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	eh.h = h
}

func (eh *eventHeap) pop() event {
	h := eh.h
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			if c+4 <= n {
				// All four children exist (the overwhelmingly common
				// case on a full level): unrolled min scan with the
				// bounds known, sparing the inner loop's per-iteration
				// compare against end.
				if h[c+1].before(&h[m]) {
					m = c + 1
				}
				if h[c+2].before(&h[m]) {
					m = c + 2
				}
				if h[c+3].before(&h[m]) {
					m = c + 3
				}
			} else {
				for j := c + 1; j < n; j++ {
					if h[j].before(&h[m]) {
						m = j
					}
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	eh.h = h
	return min
}
