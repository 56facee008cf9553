package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"accentmig/internal/obs"
)

func TestResourceSerializesUse(t *testing.T) {
	k := New()
	cpu := NewResource(k, "cpu", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		k.Go("job", func(p *Proc) {
			cpu.Use(p, 100*time.Millisecond)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if cpu.BusyTime() != 300*time.Millisecond {
		t.Errorf("BusyTime = %v, want 300ms", cpu.BusyTime())
	}
	if cpu.Acquires() != 3 {
		t.Errorf("Acquires = %d, want 3", cpu.Acquires())
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	k := New()
	r := NewResource(k, "r", 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		k.Go("job", func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	k.Run()
	// Two run in [0,1s], two in [1s,2s].
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	k := New()
	r := NewResource(k, "r", 1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Go(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	k.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", order, want)
		}
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := New()
	r := NewResource(k, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestResourceSkipsKilledWaiter(t *testing.T) {
	k := New()
	r := NewResource(k, "r", 1)
	acquired := map[string]bool{}
	k.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Second)
		r.Release()
	})
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		acquired["victim"] = true
	})
	k.Go("heir", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Acquire(p)
		acquired["heir"] = true
		r.Release()
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		victim.Kill()
	})
	k.Run()
	if acquired["victim"] {
		t.Error("killed waiter acquired the resource")
	}
	if !acquired["heir"] {
		t.Error("heir never acquired the resource")
	}
}

func TestGate(t *testing.T) {
	k := New()
	g := NewGate(k)
	var woke []time.Duration
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			g.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	k.Go("opener", func(p *Proc) {
		p.Sleep(time.Second)
		g.Open()
	})
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("only %d waiters woke", len(woke))
	}
	for _, w := range woke {
		if w != time.Second {
			t.Errorf("waiter woke at %v, want 1s", w)
		}
	}
	// Open gate passes through immediately.
	passed := false
	k.Go("late", func(p *Proc) {
		g.Wait(p)
		passed = true
	})
	k.Run()
	if !passed {
		t.Error("late waiter blocked on an open gate")
	}
}

func TestGateReclose(t *testing.T) {
	k := New()
	g := NewGate(k)
	g.Open()
	g.Close()
	woke := false
	k.Go("w", func(p *Proc) {
		g.Wait(p)
		woke = true
	})
	k.Run()
	if woke {
		t.Error("waiter passed a reclosed gate")
	}
	g.Open()
	k.Run()
	if !woke {
		t.Error("waiter not released after reopen")
	}
}

func TestResourcePriorityAdmission(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 1)
	var order []string
	k.Go("holder", func(p *Proc) {
		r.Use(p, 100*time.Millisecond)
	})
	for _, name := range []string{"user1", "user2"} {
		name := name
		k.Go(name, func(p *Proc) {
			p.Sleep(time.Millisecond)
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(10 * time.Millisecond)
			r.Release()
		})
	}
	k.Go("kernel", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // arrives last...
		r.AcquireHigh(p)
		order = append(order, "kernel")
		r.Release()
	})
	k.Run()
	if len(order) != 3 || order[0] != "kernel" {
		t.Errorf("admission order = %v, want kernel first", order)
	}
}

func TestResourcePriorityFIFOWithinClass(t *testing.T) {
	k := New()
	r := NewResource(k, "cpu", 1)
	var order []string
	k.Go("holder", func(p *Proc) { r.Use(p, time.Second) })
	for i, name := range []string{"hi1", "hi2", "hi3"} {
		name := name
		d := time.Duration(i+1) * time.Millisecond
		k.Go(name, func(p *Proc) {
			p.Sleep(d)
			r.AcquireHigh(p)
			order = append(order, name)
			r.Release()
		})
	}
	k.Run()
	for i, want := range []string{"hi1", "hi2", "hi3"} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestAcquireFuncSharesQueue: a callback waiter queues with procs under
// the same rules. It is FIFO among normal-priority waiters, admitted
// behind a later high-priority proc, and handed the unit directly by
// Release, so a releaser that re-acquires at once queues behind it. Its
// wait reaches the observer and the flight recorder under its name.
func TestAcquireFuncSharesQueue(t *testing.T) {
	k := New()
	sink := obs.NewMemorySink()
	k.SetSink(sink)
	r := NewResource(k, "m.arm", 1)
	var waits []time.Duration
	r.SetWaitObserver(func(d time.Duration) { waits = append(waits, d) })
	var order []string
	got := func(name string) { order = append(order, fmt.Sprintf("%s@%v", name, k.Now())) }
	k.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10 * time.Millisecond)
		r.Release()
		r.Acquire(p)
		got("holder")
		r.Release()
	})
	k.Go("user", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p)
		got("user")
		p.Sleep(time.Millisecond)
		r.Release()
	})
	k.Schedule(2*time.Millisecond, func() {
		r.AcquireFunc("cb", func() {
			got("cb")
			k.Schedule(time.Millisecond, r.Release)
		})
		if n := r.QueueLen(); n != 2 {
			t.Errorf("QueueLen = %d with a proc and a callback waiting, want 2", n)
		}
	})
	k.Go("kernel", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		r.AcquireHigh(p)
		got("kernel")
		p.Sleep(time.Millisecond)
		r.Release()
	})
	k.Run()
	want := []string{"kernel@10ms", "user@11ms", "cb@12ms", "holder@13ms"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
	wantWaits := []time.Duration{7 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond, 3 * time.Millisecond}
	if !reflect.DeepEqual(waits, wantWaits) {
		t.Errorf("observed waits = %v, want %v", waits, wantWaits)
	}
	if r.Acquires() != 5 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("Acquires %d, InUse %d, QueueLen %d; want 5, 0, 0", r.Acquires(), r.InUse(), r.QueueLen())
	}
	var cbWait time.Duration
	for _, ev := range sink.Events() {
		if ev.Kind == obs.QueueWait && ev.Proc == "cb" {
			cbWait = ev.Dur
		}
	}
	if cbWait != 10*time.Millisecond {
		t.Errorf("flight recorder QueueWait for cb = %v, want 10ms", cbWait)
	}
}

// TestAcquireFuncFreeUnitRunsAtOnce: with a unit free, AcquireFunc
// takes it and runs wake before returning, with no event in between.
func TestAcquireFuncFreeUnitRunsAtOnce(t *testing.T) {
	k := New()
	r := NewResource(k, "r", 1)
	ran := false
	r.AcquireFunc("cb", func() { ran = true })
	if !ran || r.InUse() != 1 || r.Acquires() != 1 || !k.Idle() {
		t.Errorf("ran %v, InUse %d, Acquires %d, idle %v; want true, 1, 1, true", ran, r.InUse(), r.Acquires(), k.Idle())
	}
}
