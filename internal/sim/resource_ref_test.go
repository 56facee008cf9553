package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sliceResource is Resource as it was with one waiter slice, where a
// high-priority waiter was inserted after the last queued high-priority
// one by a scan and a copy of the slice tail: the reference model for
// the two class rings.
type sliceResource struct {
	k         *Kernel
	capacity  int
	inUse     int
	waiters   []*resWaiter
	busy      time.Duration
	lastStamp time.Duration
	acquires  uint64
	waitObs   func(time.Duration)
}

func (r *sliceResource) QueueLen() int                          { return len(r.waiters) }
func (r *sliceResource) Acquires() uint64                       { return r.acquires }
func (r *sliceResource) SetWaitObserver(fn func(time.Duration)) { r.waitObs = fn }
func (r *sliceResource) Acquire(p *Proc)                        { r.acquire(p, false) }
func (r *sliceResource) AcquireHigh(p *Proc)                    { r.acquire(p, true) }

func (r *sliceResource) BusyTime() time.Duration {
	r.account()
	return r.busy
}

func (r *sliceResource) account() {
	now := r.k.Now()
	r.busy += time.Duration(r.inUse) * (now - r.lastStamp)
	r.lastStamp = now
}

func (r *sliceResource) enqueue(w *resWaiter) {
	if !w.high {
		r.waiters = append(r.waiters, w)
		return
	}
	idx := 0
	for idx < len(r.waiters) && r.waiters[idx].high {
		idx++
	}
	r.waiters = append(r.waiters, nil)
	copy(r.waiters[idx+1:], r.waiters[idx:])
	r.waiters[idx] = w
}

func (r *sliceResource) acquire(p *Proc, high bool) {
	waitStart := time.Duration(-1)
	for r.inUse >= r.capacity {
		if waitStart < 0 {
			waitStart = r.k.now
		}
		w := &resWaiter{p: p, high: high}
		r.enqueue(w)
		p.park()
		if w.granted {
			r.acquires++
			r.observeWait(waitStart)
			return
		}
	}
	r.account()
	r.inUse++
	r.acquires++
	r.observeWait(waitStart)
}

func (r *sliceResource) AcquireFunc(who string, wake func()) {
	if r.inUse < r.capacity {
		r.account()
		r.inUse++
		r.acquires++
		wake()
		return
	}
	r.enqueue(&resWaiter{wake: wake, who: who, since: r.k.now})
}

func (r *sliceResource) observeWait(waitStart time.Duration) {
	if waitStart < 0 {
		return
	}
	if d := r.k.now - waitStart; d > 0 && r.waitObs != nil {
		r.waitObs(d)
	}
}

func (r *sliceResource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.account()
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters[0] = nil
		r.waiters = r.waiters[1:]
		if w.p == nil {
			r.k.Schedule(0, func() {
				r.acquires++
				r.observeWait(w.since)
				w.wake()
			})
			return
		}
		if w.p.killed || w.p.done {
			continue
		}
		w.granted = true
		w.p.UnparkExternal()
		return
	}
	r.inUse--
}

// admission is what TestResourceMatchesSliceModel drives: the API the
// two implementations share.
type admission interface {
	Acquire(p *Proc)
	AcquireHigh(p *Proc)
	AcquireFunc(who string, wake func())
	Release()
	QueueLen() int
	Acquires() uint64
	BusyTime() time.Duration
	SetWaitObserver(fn func(time.Duration))
}

// admissionScript is one random workload: procs that each acquire and
// hold a few times at either priority, callback waiters queued by
// events, and kills aimed at procs while they wait. Times sit on a
// coarse lattice so many arrivals and releases share an instant.
type admissionScript struct {
	capacity int
	procs    [][]admissionStep
	funcs    []admissionStep
	kills    []admissionKill
}

type admissionStep struct {
	gap, hold time.Duration // for funcs, gap is the absolute arrival time
	high      bool
}

type admissionKill struct {
	at   time.Duration
	proc int
}

func newAdmissionScript(rng *rand.Rand) admissionScript {
	tick := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Millisecond }
	s := admissionScript{capacity: 1 + rng.Intn(3)}
	s.procs = make([][]admissionStep, 2+rng.Intn(12))
	for i := range s.procs {
		for j := 1 + rng.Intn(5); j > 0; j-- {
			s.procs[i] = append(s.procs[i], admissionStep{gap: tick(6), hold: tick(4), high: rng.Intn(3) == 0})
		}
	}
	for j := rng.Intn(10); j > 0; j-- {
		s.funcs = append(s.funcs, admissionStep{gap: tick(30), hold: tick(4)})
	}
	for j := rng.Intn(4); j > 0; j-- {
		s.kills = append(s.kills, admissionKill{tick(30), rng.Intn(len(s.procs))})
	}
	return s
}

// admissionRun is everything a run of a script lets a caller observe.
type admissionRun struct {
	Grants   []string // "time who queue-length", in grant order
	Waits    []time.Duration
	Acquires uint64
	Busy     time.Duration
	QueueLen int
	End      time.Duration
}

func runAdmission(s admissionScript, mk func(k *Kernel, capacity int) admission) admissionRun {
	k := New()
	defer k.Close()
	r := mk(k, s.capacity)
	var run admissionRun
	r.SetWaitObserver(func(d time.Duration) { run.Waits = append(run.Waits, d) })
	grant := func(who string) {
		run.Grants = append(run.Grants, fmt.Sprintf("%v %s q%d", k.Now(), who, r.QueueLen()))
	}
	waiting := make([]bool, len(s.procs))
	procs := make([]*Proc, len(s.procs))
	for i, steps := range s.procs {
		procs[i] = k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j, st := range steps {
				p.Sleep(st.gap)
				waiting[i] = true
				if st.high {
					r.AcquireHigh(p)
				} else {
					r.Acquire(p)
				}
				waiting[i] = false
				grant(fmt.Sprintf("p%d.%d", i, j))
				p.Sleep(st.hold)
				r.Release()
			}
		})
	}
	for j, f := range s.funcs {
		k.Schedule(f.gap, func() {
			r.AcquireFunc(fmt.Sprintf("f%d", j), func() {
				grant(fmt.Sprintf("f%d", j))
				k.Schedule(f.hold, r.Release)
			})
		})
	}
	for _, kl := range s.kills {
		k.Schedule(kl.at, func() {
			if waiting[kl.proc] && !procs[kl.proc].Done() {
				procs[kl.proc].Kill()
				grant(fmt.Sprintf("kill p%d", kl.proc))
			}
		})
	}
	k.Run()
	run.Acquires, run.Busy, run.QueueLen, run.End = r.Acquires(), r.BusyTime(), r.QueueLen(), k.Now()
	return run
}

// TestResourceMatchesSliceModel runs random Acquire/AcquireHigh/
// AcquireFunc/kill mixes against Resource and against the single-slice
// priority insert it replaced, and requires the same grant order and
// times, queue lengths, Acquires, BusyTime and wait observations.
func TestResourceMatchesSliceModel(t *testing.T) {
	highs := 0
	for seed := int64(1); seed <= 300; seed++ {
		s := newAdmissionScript(rand.New(rand.NewSource(seed)))
		got := runAdmission(s, func(k *Kernel, c int) admission { return NewResource(k, "r", c) })
		want := runAdmission(s, func(k *Kernel, c int) admission { return &sliceResource{k: k, capacity: c} })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (capacity %d, %d procs, %d callbacks, %d kills):\n got %+v\nwant %+v",
				seed, s.capacity, len(s.procs), len(s.funcs), len(s.kills), got, want)
		}
		for _, steps := range s.procs {
			for _, st := range steps {
				if st.high {
					highs++
				}
			}
		}
	}
	if highs == 0 {
		t.Fatal("no script queued a high-priority waiter")
	}
}
