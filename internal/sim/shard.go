package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Cluster shards a simulation into per-machine event lanes — one Kernel
// per lane — and executes them on a worker pool under conservative
// lookahead synchronization.
//
// The lookahead is the minimum delay of any cross-lane interaction: no
// lane can affect another sooner than lookahead after its current clock.
// In this repository the lookahead is the minimum cross-machine link
// latency in internal/netlink; a lane that has reached time T therefore
// cannot receive anything new before T+lookahead, so every lane may run
// independently up to that horizon. The scheduler repeats:
//
//  1. barrier: gather every lane's outbox of cross-lane sends into the
//     pending set, and pick T = the earliest pending event anywhere
//     (lane-local or cross-lane);
//  2. deliver: move pending cross events with time < T+lookahead onto
//     their destination lanes in fixed (time, source shard ID, per-source
//     sequence) order;
//  3. window: run every lane that has work before the horizon with
//     RunUntil(T+lookahead-1), in parallel across the worker pool.
//
// Cross-lane sends made during a window are buffered in a per-source
// outbox (each outbox is touched only by its own lane's worker, so the
// buffering is race-free) and merged at the next barrier. Because the
// merge order is a deterministic function of virtual times and shard IDs
// — never of worker scheduling — a simulation built on Cluster.Send
// produces identical results for any worker count, including the
// degenerate one-lane cluster, which delegates to the plain sequential
// Kernel.Run code path verbatim.
//
// Byte-identity with a single shared kernel additionally requires the
// model to be tie-free: two events that touch the same state must never
// share a virtual nanosecond, since a single kernel orders such ties by
// global scheduling order while lanes order them per-lane. The
// netlink.Iface per-sender phase skew plus lattice-aligned local work
// (see internal/netlink and docs/PERFORMANCE.md) gives that by
// construction.
type Cluster struct {
	lanes []*Kernel
	la    time.Duration

	out  [][]crossEvent // per-source-lane outboxes, filled during windows
	pend []crossEvent   // undelivered cross events, coordinator-owned
	seq  []uint64       // per-source send sequence, total order per lane

	hi     time.Duration // current window end (exclusive); set before dispatch
	active []int32       // scratch: lanes with work in the current window

	panicMu sync.Mutex
	laneErr any
	errLane int

	workers    int
	windows    uint64
	crossSent  uint64
	parWall    int64 // ns, host wall inside parallel window sections
	laneWallNS []int64
}

// crossEvent is one cross-lane hand-off: fn runs on lane to at virtual
// time at. src and seq pin the deterministic merge order for events
// delivered at the same instant.
type crossEvent struct {
	at  time.Duration
	src int32
	to  int32
	seq uint64
	fn  func()
}

// NewCluster returns a cluster of n independent lanes with the given
// lookahead. Every cross-lane send must have delay >= lookahead; the
// tighter the bound the shorter the windows, so callers should pass the
// true minimum cross-lane delay (the minimum link latency), not a
// conservative guess below it.
func NewCluster(n int, lookahead time.Duration) *Cluster {
	if n < 1 {
		panic("sim: NewCluster with no lanes")
	}
	if lookahead <= 0 {
		panic("sim: NewCluster lookahead must be positive")
	}
	c := &Cluster{
		lanes:      make([]*Kernel, n),
		la:         lookahead,
		out:        make([][]crossEvent, n),
		seq:        make([]uint64, n),
		laneWallNS: make([]int64, n),
		errLane:    -1,
	}
	for i := range c.lanes {
		c.lanes[i] = New()
	}
	return c
}

// Lane returns lane i's kernel. Everything that belongs to one machine —
// its procs, queues, resources — is built on its own lane's kernel.
func (c *Cluster) Lane(i int) *Kernel { return c.lanes[i] }

// Lookahead reports the cluster's lookahead.
func (c *Cluster) Lookahead() time.Duration { return c.la }

// Send arranges for fn to run on lane dst at time Lane(src).Now()+d. It
// must be called from lane src's context (an event or proc running on
// that lane) or before Run. Same-lane sends are ordinary local events
// with no lookahead constraint; cross-lane sends require d >= Lookahead,
// which holds by construction when d is a link latency the lookahead was
// derived from.
func (c *Cluster) Send(src, dst int, d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Send with nil function")
	}
	if src < 0 || src >= len(c.lanes) || dst < 0 || dst >= len(c.lanes) {
		panic(fmt.Sprintf("sim: Send lane out of range (src %d, dst %d, lanes %d)", src, dst, len(c.lanes)))
	}
	if dst == src {
		c.lanes[src].Schedule(d, fn)
		return
	}
	if d < c.la {
		panic(fmt.Sprintf("sim: cross-lane send delay %v below lookahead %v", d, c.la))
	}
	c.out[src] = append(c.out[src], crossEvent{
		at:  c.lanes[src].now + d,
		src: int32(src),
		to:  int32(dst),
		seq: c.seq[src],
		fn:  fn,
	})
	c.seq[src]++
}

// Run dispatches events on every lane until the whole cluster is
// quiescent (no lane events and no undelivered cross events), using up
// to workers goroutines for the window phases. workers <= 0 selects
// GOMAXPROCS. It returns the latest lane clock. A one-lane cluster
// delegates to the plain Kernel.Run, taking the sequential code path
// verbatim.
func (c *Cluster) Run(workers int) time.Duration {
	if len(c.lanes) == 1 {
		return c.lanes[0].Run()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.lanes) {
		workers = len(c.lanes)
	}
	c.workers = workers

	var work chan int32
	var wg sync.WaitGroup
	if workers > 1 {
		work = make(chan int32, len(c.lanes))
		for w := 0; w < workers; w++ {
			go func() {
				for ln := range work {
					c.runLane(int(ln), &wg)
				}
			}()
		}
		defer close(work)
	}

	for {
		// Barrier: collect every lane's outbox into the pending set.
		// Outboxes were written by lane workers, but the window barrier
		// (WaitGroup) ordered those writes before this read.
		for s := range c.out {
			if len(c.out[s]) == 0 {
				continue
			}
			c.crossSent += uint64(len(c.out[s]))
			c.pend = append(c.pend, c.out[s]...)
			for i := range c.out[s] {
				c.out[s][i].fn = nil // release the closures to the GC
			}
			c.out[s] = c.out[s][:0]
		}

		t, ok := c.nextTime()
		if !ok {
			break
		}
		hi := t + c.la
		c.hi = hi
		c.deliver(hi)

		// Only lanes with work before the horizon participate; idle
		// lanes keep their (stale) clocks, which is safe because every
		// future delivery to them is at an absolute time >= any window
		// already run (ScheduleAt, not Schedule, carries it over).
		c.active = c.active[:0]
		for i, k := range c.lanes {
			if at, ok := k.NextEventAt(); ok && at < hi {
				c.active = append(c.active, int32(i))
			}
		}
		c.windows++

		parStart := time.Now()
		if workers == 1 || len(c.active) == 1 {
			for _, ln := range c.active {
				wg.Add(1)
				c.runLane(int(ln), &wg)
			}
		} else {
			wg.Add(len(c.active))
			for _, ln := range c.active {
				work <- ln
			}
			wg.Wait()
		}
		atomic.AddInt64(&c.parWall, int64(time.Since(parStart)))

		if err := c.takeLaneErr(); err != nil {
			panic(fmt.Sprintf("sim: lane %d panicked: %v", c.errLane, err))
		}
	}

	var end time.Duration
	for _, k := range c.lanes {
		if k.Now() > end {
			end = k.Now()
		}
	}
	return end
}

// runLane executes one lane's share of the current window. It runs on a
// pool worker (or inline on the coordinator); panics from lane events
// are captured and re-raised by the coordinator after the barrier so the
// pool never deadlocks on a half-finished window.
func (c *Cluster) runLane(ln int, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			c.panicMu.Lock()
			if c.laneErr == nil {
				c.laneErr = r
				c.errLane = ln
			}
			c.panicMu.Unlock()
		}
	}()
	t0 := time.Now()
	// The window is [T, hi); RunUntil is inclusive, so stop at hi-1ns.
	c.lanes[ln].RunUntil(c.hi - 1)
	atomic.AddInt64(&c.laneWallNS[ln], int64(time.Since(t0)))
}

func (c *Cluster) takeLaneErr() any {
	c.panicMu.Lock()
	defer c.panicMu.Unlock()
	return c.laneErr
}

// nextTime reports the earliest pending virtual time across all lanes
// and undelivered cross events.
func (c *Cluster) nextTime() (time.Duration, bool) {
	var t time.Duration
	ok := false
	for _, k := range c.lanes {
		if at, has := k.NextEventAt(); has && (!ok || at < t) {
			t, ok = at, true
		}
	}
	for i := range c.pend {
		if !ok || c.pend[i].at < t {
			t, ok = c.pend[i].at, true
		}
	}
	return t, ok
}

// deliver moves pending cross events due before hi onto their target
// lanes in (time, source shard ID, per-source sequence) order. That key
// is a pure function of the simulation, so the resulting per-lane heap
// sequence numbers — and hence all downstream tie-breaking — are
// identical for every worker count.
func (c *Cluster) deliver(hi time.Duration) {
	if len(c.pend) == 0 {
		return
	}
	sort.Slice(c.pend, func(i, j int) bool {
		a, b := &c.pend[i], &c.pend[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	n := 0
	for n < len(c.pend) && c.pend[n].at < hi {
		x := &c.pend[n]
		c.lanes[x.to].ScheduleAt(x.at, x.fn)
		x.fn = nil
		n++
	}
	if n > 0 {
		rest := copy(c.pend, c.pend[n:])
		for i := rest; i < len(c.pend); i++ {
			c.pend[i] = crossEvent{}
		}
		c.pend = c.pend[:rest]
	}
}

// Close reaps every lane (see Kernel.Close). Call it once the run's
// results have been read.
func (c *Cluster) Close() {
	for _, k := range c.lanes {
		k.Close()
	}
}

// EventsRun reports the total events dispatched across all lanes.
func (c *Cluster) EventsRun() uint64 {
	var n uint64
	for _, k := range c.lanes {
		n += k.EventsRun()
	}
	return n
}

// ClusterStats is host-side accounting for one Run: window and cross-
// event counts are properties of the simulation (deterministic), the
// wall-clock figures are properties of the host and the worker count.
type ClusterStats struct {
	Workers     int
	Windows     uint64
	CrossEvents uint64

	ParallelWall time.Duration   // wall inside the window sections
	LaneWall     []time.Duration // per-lane wall summed over windows
}

// Stats returns accounting for the Run that completed. BarrierStall
// summarizes the parallel efficiency it implies.
func (c *Cluster) Stats() ClusterStats {
	s := ClusterStats{
		Workers:      c.workers,
		Windows:      c.windows,
		CrossEvents:  c.crossSent,
		ParallelWall: time.Duration(atomic.LoadInt64(&c.parWall)),
		LaneWall:     make([]time.Duration, len(c.lanes)),
	}
	for i := range c.laneWallNS {
		s.LaneWall[i] = time.Duration(atomic.LoadInt64(&c.laneWallNS[i]))
	}
	return s
}

// BarrierStall reports the fraction of worker capacity spent waiting at
// window barriers rather than dispatching lane events: 1 means the pool
// was entirely stalled, 0 means perfectly packed windows. Meaningless
// (reported as 0) for sequential runs.
func (s ClusterStats) BarrierStall() float64 {
	if s.Workers <= 1 || s.ParallelWall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, w := range s.LaneWall {
		busy += w
	}
	cap := time.Duration(s.Workers) * s.ParallelWall
	if busy >= cap {
		return 0
	}
	return float64(cap-busy) / float64(cap)
}
