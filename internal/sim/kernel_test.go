package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := New()
	var got []int
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	end := k.Run()
	if end != 3*time.Millisecond {
		t.Errorf("Run ended at %v, want 3ms", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNestedSchedule(t *testing.T) {
	k := New()
	var fired []time.Duration
	k.Schedule(time.Second, func() {
		k.Schedule(time.Second, func() {
			fired = append(fired, k.Now())
		})
		fired = append(fired, k.Now())
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v, want [1s 2s]", fired)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New()
	ran := false
	k.Schedule(-time.Hour, func() { ran = true })
	if end := k.Run(); end != 0 {
		t.Errorf("clock advanced to %v for clamped event", end)
	}
	if !ran {
		t.Error("negative-delay event never ran")
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("after RunUntil(2s): fired %v", fired)
	}
	if k.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after final Run: fired %v", fired)
	}
	if k.Now() != 3*time.Second {
		t.Errorf("final Now = %v, want 3s", k.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	k := New()
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s on empty heap", k.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := New()
	k.Schedule(time.Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Error("ScheduleAt in the past did not panic")
		}
	}()
	k.ScheduleAt(time.Millisecond, func() {})
}

// TestDeterminism runs an identical randomized workload twice and
// requires the dispatch traces to match exactly.
func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		k := New()
		var trace []time.Duration
		var rng uint64 = 12345
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			d := time.Duration(next()%1000) * time.Microsecond
			k.Schedule(d, func() {
				trace = append(trace, k.Now())
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, Run dispatches them in
// non-decreasing time order and ends the clock at the max delay.
func TestQuickDispatchOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		k := New()
		var seen []time.Duration
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			if dd > max {
				max = dd
			}
			k.Schedule(dd, func() { seen = append(seen, k.Now()) })
		}
		end := k.Run()
		if len(delays) > 0 && end != max {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkKernelEvents measures raw event dispatch throughput.
func BenchmarkKernelEvents(b *testing.B) {
	k := New()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcSwitch measures coroutine context-switch cost.
func BenchmarkProcSwitch(b *testing.B) {
	k := New()
	k.Go("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkQueueHandoff measures producer/consumer hand-off cost.
func BenchmarkQueueHandoff(b *testing.B) {
	k := New()
	q := NewQueue[int](k)
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Yield()
		}
	})
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	b.ResetTimer()
	k.Run()
}
