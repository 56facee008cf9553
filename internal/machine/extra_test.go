package machine

import (
	"testing"
	"time"

	"accentmig/internal/sim"
	"accentmig/internal/trace"
)

func TestQuantumSlicesLongCompute(t *testing.T) {
	// A kernel-priority user of the CPU must get in within one quantum
	// even while a process executes a very long compute op.
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("cruncher", 0)
	pr.Program = &trace.Program{Ops: []trace.Op{trace.Compute{D: 10 * time.Second}}}
	m.Start(pr)
	var kernelAt time.Duration
	k.Go("kernel", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		m.CPU.UseHigh(p, time.Millisecond)
		kernelAt = p.Now()
	})
	k.Run()
	if kernelAt > 100*time.Millisecond {
		t.Errorf("kernel work waited until %v behind a long compute", kernelAt)
	}
	if pr.Status != Finished {
		t.Errorf("status = %v", pr.Status)
	}
}

func TestQuantumPreservesTotalComputeTime(t *testing.T) {
	// Slicing must not change a lone process's total runtime.
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.Program = &trace.Program{Ops: []trace.Op{trace.Compute{D: 1234 * time.Millisecond}}}
	m.Start(pr)
	end := k.Run()
	if end != 1234*time.Millisecond {
		t.Errorf("runtime = %v, want 1.234s", end)
	}
}

func TestIOWaitDoesNotHoldCPU(t *testing.T) {
	// While one process waits on I/O, another computes.
	k := sim.New()
	m := New(k, "host", Config{})
	a, _ := m.NewProcess("waiter", 0)
	a.Program = &trace.Program{Ops: []trace.Op{trace.IOWait{D: time.Second}}}
	b, _ := m.NewProcess("worker", 0)
	b.Program = &trace.Program{Ops: []trace.Op{trace.Compute{D: time.Second}}}
	m.Start(a)
	m.Start(b)
	end := k.Run()
	// Overlapped: total well under the 2s a serialized run would take.
	if end > 1100*time.Millisecond {
		t.Errorf("IOWait serialized with compute: total %v", end)
	}
}

func TestTwoProcessesShareCPUFairly(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	var finish []time.Duration
	for _, name := range []string{"a", "b"} {
		pr, _ := m.NewProcess(name, 0)
		pr.Program = &trace.Program{Ops: []trace.Op{trace.Compute{D: time.Second}}}
		m.Start(pr)
		k.Go("waiter-"+name, func(p *sim.Proc) {
			pr.WaitDone(p)
			finish = append(finish, p.Now())
		})
	}
	end := k.Run()
	if end != 2*time.Second {
		t.Errorf("total = %v, want 2s of serialized compute", end)
	}
	// With quantum slicing both finish near the end (round-robin), not
	// one at 1s and one at 2s.
	if finish[0] < 1900*time.Millisecond {
		t.Errorf("first finisher at %v; expected interleaved completion", finish[0])
	}
}

func TestRequestPreemptBeforeStart(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.Program = &trace.Program{Ops: []trace.Op{trace.Compute{D: time.Second}}}
	m.RequestPreempt(pr)
	m.Start(pr)
	stopped := false
	k.Go("driver", func(p *sim.Proc) {
		stopped = m.WaitStopped(p, pr)
	})
	k.Run()
	if !stopped {
		t.Fatal("pre-start preempt ignored")
	}
	if pr.PC != 0 {
		t.Errorf("PC = %d, want 0 (stopped before the first op)", pr.PC)
	}
}

func TestAdoptRejectsDuplicate(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	if err := m.Adopt(pr); err == nil {
		t.Error("Adopt accepted a duplicate name")
	}
}

func TestProcNamesSorted(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := m.NewProcess(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	names := m.ProcNames()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ProcNames = %v", names)
		}
	}
}
