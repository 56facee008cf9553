package sim

import (
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	k := New()
	var wake time.Duration
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 42*time.Millisecond {
		t.Errorf("woke at %v, want 42ms", wake)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New()
	var order []string
	mk := func(name string, d time.Duration) {
		k.Go(name, func(p *Proc) {
			p.Sleep(d)
			order = append(order, name)
			p.Sleep(d)
			order = append(order, name)
		})
	}
	mk("a", 10*time.Millisecond)
	mk("b", 15*time.Millisecond)
	k.Run()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcYieldFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Yield()
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("yield order = %v", order)
		}
	}
}

func TestProcKillWhileSleeping(t *testing.T) {
	k := New()
	reached := false
	p := k.Go("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	k.Go("killer", func(q *Proc) {
		q.Sleep(time.Second)
		p.Kill()
	})
	end := k.Run()
	if reached {
		t.Error("killed proc ran past its sleep")
	}
	if !p.Done() {
		t.Error("killed proc not marked done")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
	// The hour-long wakeup event still exists but must be a no-op; the
	// clock will advance to it. What matters is no resurrection.
	_ = end
}

func TestProcKillBeforeStart(t *testing.T) {
	k := New()
	ran := false
	p := k.Go("never", func(p *Proc) { ran = true })
	p.Kill()
	k.Run()
	if ran {
		t.Error("killed-before-start proc ran")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestBlockedProcLeavesKernelIdle(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	k.Go("server", func(p *Proc) {
		for {
			q.Pop(p)
		}
	})
	k.Run()
	if k.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (blocked server)", k.LiveProcs())
	}
	if !k.Idle() {
		t.Error("kernel not idle with only a blocked server")
	}
	k.Close()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Close, want 0", k.LiveProcs())
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := New()
		var order []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			k.Go(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(j+1) * time.Millisecond)
					order = append(order, name)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverges at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestProcPanicReachesRun: a panic in a proc body surfaces from Run in
// the caller's goroutine, here from a body resumed by a queue hand-off.
// The panicking proc is finished and the kernel is back out of proc
// context, so the caller can still Close it and unwind the others.
func TestProcPanicReachesRun(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	idle := NewQueue[int](k)
	unwound := false
	k.Go("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		idle.Pop(p)
	})
	k.Go("bomb", func(p *Proc) {
		q.Pop(p)
		panic("boom")
	})
	k.Schedule(time.Millisecond, func() { q.Push(1) })
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if k.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d after the panic, want 1 (the bystander)", k.LiveProcs())
	}
	k.Close()
	if !unwound || k.LiveProcs() != 0 {
		t.Errorf("Close after a proc panic: bystander unwound %v, LiveProcs %d", unwound, k.LiveProcs())
	}
}
