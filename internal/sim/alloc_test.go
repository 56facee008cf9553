package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestKernelDispatchAllocs is the allocation-regression guard for the
// event hot path: scheduling and dispatching a pre-built callback must
// not allocate at all once the heap's backing array is warm, because
// events are stored by value in the 4-ary heap.
func TestKernelDispatchAllocs(t *testing.T) {
	k := New()
	fn := func() {}
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		k.Schedule(time.Duration(i), fn)
	}
	k.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		k.Run()
	})
	if avg != 0 {
		t.Errorf("event schedule+dispatch allocates %.2f objects per 32-event batch, want 0", avg)
	}
}

// TestAllocsProfileOff pins the profiler's zero-cost-when-off
// contract: with no flight-recorder sink installed, resource holds —
// the profiler's ResourceHold emission gate sits on the Use/UseHigh
// release path — must not allocate at all.
func TestAllocsProfileOff(t *testing.T) {
	k := New()
	r := NewResource(k, "m.cpu", 1)
	q := NewQueue[int](k)
	k.Go("worker", func(p *Proc) {
		for {
			n := q.Pop(p)
			if n < 0 {
				return
			}
			for i := 0; i < n; i++ {
				r.Use(p, time.Microsecond)
				r.UseHigh(p, time.Microsecond)
			}
		}
	})
	// Warm the heap and queue backing arrays.
	q.Push(16)
	k.Run()
	avg := testing.AllocsPerRun(200, func() {
		q.Push(32)
		k.Run()
	})
	q.Push(-1)
	k.Run()
	if avg != 0 {
		t.Errorf("untraced resource use allocates %.2f objects per 64-hold batch, want 0", avg)
	}
}

// TestAllocsProcHandoff pins the proc hand-off: a queue ping-pong
// between two procs parks and resumes each of them once per round trip,
// and none of that may allocate once the queues' backing arrays are warm.
func TestAllocsProcHandoff(t *testing.T) {
	k := New()
	start := NewQueue[int](k)
	req := NewQueue[int](k)
	rsp := NewQueue[int](k)
	k.Go("server", func(p *Proc) {
		for {
			v := req.Pop(p)
			if v < 0 {
				return
			}
			rsp.Push(v)
		}
	})
	k.Go("client", func(p *Proc) {
		for {
			n := start.Pop(p)
			if n < 0 {
				req.Push(-1)
				return
			}
			for i := 0; i < n; i++ {
				req.Push(i)
				rsp.Pop(p)
			}
		}
	})
	start.Push(16)
	k.Run()
	avg := testing.AllocsPerRun(200, func() {
		start.Push(32)
		k.Run()
	})
	start.Push(-1)
	k.Run()
	if avg != 0 {
		t.Errorf("proc hand-off allocates %.2f objects per 32-round-trip batch, want 0", avg)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

// TestHeapOrderingProperty drives the 4-ary heap with an adversarial
// schedule pattern and checks the kernel's dispatch contract: events
// fire in timestamp order, FIFO within a timestamp.
func TestHeapOrderingProperty(t *testing.T) {
	k := New()
	type stamp struct {
		at  time.Duration
		seq int
	}
	var got []stamp
	seq := 0
	// Interleave ascending, descending, and duplicate timestamps.
	delays := []int{5, 3, 9, 3, 1, 9, 0, 7, 3, 2, 8, 0, 5, 5, 4, 6}
	for _, d := range delays {
		d := d
		s := seq
		seq++
		k.Schedule(time.Duration(d)*time.Second, func() {
			got = append(got, stamp{at: k.Now(), seq: s})
		})
	}
	k.Run()
	if len(got) != len(delays) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at {
			t.Fatalf("event %d at %v fired after event %d at %v", i, b.at, i-1, a.at)
		}
		if b.at == a.at && b.seq < a.seq {
			t.Fatalf("same-instant events out of scheduling order: %d before %d", a.seq, b.seq)
		}
	}
}

// TestSleepFastPathAdvancesClock verifies the same-instant fast path:
// with an empty heap a sleep advances the clock without dispatching an
// event, and ordering against queued same-time events is preserved.
func TestSleepFastPathAdvancesClock(t *testing.T) {
	k := New()
	var sawAt time.Duration
	k.Go("p", func(p *Proc) {
		p.Sleep(3 * time.Second) // heap empty: fast path
		sawAt = p.Now()
	})
	k.Run()
	if sawAt != 3*time.Second {
		t.Errorf("woke at %v, want 3s", sawAt)
	}
	if k.Now() != 3*time.Second {
		t.Errorf("kernel now = %v, want 3s", k.Now())
	}

	// With a same-instant event queued, Yield must park so the queued
	// event runs first.
	k2 := New()
	var order []string
	k2.Go("q", func(p *Proc) {
		p.Kernel().Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	k2.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Errorf("order = %v, want [event proc]", order)
	}
}

// BenchmarkScheduleDispatch measures raw event throughput of the
// kernel's heap (no procs involved).
func BenchmarkScheduleDispatch(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			k.Schedule(time.Duration(j%7)*time.Microsecond, fn)
		}
		k.Run()
	}
}

// BenchmarkProcSleepLoop measures the proc wake path, dominated by the
// same-instant fast path when the heap is otherwise empty.
func BenchmarkProcSleepLoop(b *testing.B) {
	k := New()
	done := false
	n := 0
	k.Go("sleeper", func(p *Proc) {
		for !done {
			p.Sleep(time.Microsecond)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	// The proc spins entirely inside one Run call via the fast path;
	// bound the iterations by flipping done from a scheduled event.
	k.Schedule(time.Duration(b.N+1)*time.Microsecond, func() { done = true })
	k.Run()
	if n < b.N {
		b.Fatalf("only %d sleeps for b.N=%d", n, b.N)
	}
}

// BenchmarkQueuePingPong measures the Queue wait path: one producer
// and one consumer proc trading items through a queue.
func BenchmarkQueuePingPong(b *testing.B) {
	k := New()
	req := NewQueue[int](k)
	rsp := NewQueue[int](k)
	k.Go("server", func(p *Proc) {
		for {
			v := req.Pop(p)
			if v < 0 {
				return
			}
			rsp.Push(v)
		}
	})
	var got int
	k.Go("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			req.Push(i)
			got = rsp.Pop(p)
		}
		req.Push(-1)
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	_ = got
}

// BenchmarkProcSpawn measures a proc's whole life: Go, the start event
// that makes its coroutine and runs the body, and its return.
func BenchmarkProcSpawn(b *testing.B) {
	k := New()
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Go("p", body)
		k.Run()
	}
}

// BenchmarkResourceHighBehindBacklog measures high-priority admission
// behind a normal-priority backlog, the shape of a demand disk read
// arriving while write-backs queue for the arm. N callback waiters keep
// their places in the queue throughout; two procs take turns holding
// the unit, each re-acquiring at high priority while the other holds
// it, so every iteration is one high-priority wait ahead of N normal
// waiters and one hand-off.
func BenchmarkResourceHighBehindBacklog(b *testing.B) {
	for _, n := range []int{16, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			k := New()
			defer k.Close()
			r := NewResource(k, "arm", 1)
			r.AcquireFunc("holder", func() {})
			served := 0
			for i := 0; i < n; i++ {
				r.AcquireFunc("writeback", func() { served++ })
			}
			left := b.N
			turn := func(p *Proc) {
				for {
					r.AcquireHigh(p)
					if left == 0 {
						return // keep the unit, so the backlog is never served
					}
					left--
					r.Release()
				}
			}
			k.Go("a", turn)
			k.Go("b", turn)
			k.Schedule(0, r.Release) // the holder lets go once both wait
			b.ReportAllocs()
			b.ResetTimer()
			k.Run()
			b.StopTimer()
			if left != 0 || served != 0 {
				b.Fatalf("%d turns left, %d backlog waiters served; want 0, 0", left, served)
			}
		})
	}
}
