package core

import (
	"fmt"
	"testing"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// cluster builds n fully-connected machines with managers.
func cluster(t *testing.T, n int) (*sim.Kernel, []*machine.Machine, []*Manager) {
	t.Helper()
	k := sim.New()
	var ms []*machine.Machine
	var mgrs []*Manager
	for i := 0; i < n; i++ {
		m := machine.New(k, fmt.Sprintf("m%d", i), machine.Config{})
		ms = append(ms, m)
		mgrs = append(mgrs, NewManager(m, DefaultTuning()))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			machine.Connect(ms[i], ms[j], netlink.Config{})
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				ms[i].Net.AddRoute(mgrs[j].Port.ID, ms[j].Name)
			}
		}
	}
	return k, ms, mgrs
}

// computeJob builds a process that alternates compute and touches.
func computeJob(t *testing.T, m *machine.Machine, name string, bursts int) *machine.Process {
	t.Helper()
	pr, err := m.NewProcess(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, 64*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		pg := reg.Seg.Materialize(i, []byte{byte(i)})
		pg.State.OnDisk = true
	}
	var ops []trace.Op
	for i := 0; i < bursts; i++ {
		ops = append(ops,
			trace.Compute{D: 200 * time.Millisecond},
			trace.Touch{Addr: vm.Addr(512 * (uint64(i) % 64))},
		)
	}
	pr.Program = &trace.Program{Ops: ops}
	return pr
}

func TestPreemptAndResumeLocally(t *testing.T) {
	k, ms, _ := cluster(t, 1)
	pr := computeJob(t, ms[0], "job", 50)
	ms[0].Start(pr)
	stopped := false
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		ms[0].RequestPreempt(pr)
		stopped = ms[0].WaitStopped(p, pr)
		// Resume it.
		ms[0].Start(pr)
	})
	k.Run()
	if !stopped {
		t.Fatal("preempt did not stop the process")
	}
	if pr.Status != machine.Finished {
		t.Errorf("status = %v after resume", pr.Status)
	}
}

func TestPreemptRacesCompletion(t *testing.T) {
	k, ms, _ := cluster(t, 1)
	pr := computeJob(t, ms[0], "job", 1) // finishes almost immediately
	ms[0].Start(pr)
	var stopped bool
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(10 * time.Second) // long after completion
		ms[0].RequestPreempt(pr)
		stopped = ms[0].WaitStopped(p, pr)
	})
	k.Run()
	if stopped {
		t.Error("WaitStopped reported preemption of a finished process")
	}
}

func TestBalancerLevelsLoad(t *testing.T) {
	k, ms, mgrs := cluster(t, 3)
	const jobs = 6
	for i := 0; i < jobs; i++ {
		pr := computeJob(t, ms[0], fmt.Sprintf("job%d", i), 400)
		ms[0].Start(pr)
	}
	b := NewBalancer(mgrs...)
	stop := sim.NewGate(k)
	var balErr error
	k.Go("balancer", func(p *sim.Proc) {
		balErr = b.Run(p, 2*time.Second, stop)
	})
	k.Go("watch", func(p *sim.Proc) {
		// Give it a minute of virtual time, then check distribution.
		p.Sleep(60 * time.Second)
		stop.Open()
	})
	k.RunUntil(61 * time.Second)
	if balErr != nil {
		t.Fatal(balErr)
	}
	if b.Migrations() == 0 {
		t.Fatal("balancer never migrated anything")
	}
	loads := b.Loads()
	total := 0
	for _, l := range loads {
		total += l.Runnable
	}
	if total == 0 {
		t.Skip("all jobs finished before the check; lengthen bursts")
	}
	// No host should hold everything any more.
	for _, l := range loads {
		if l.Runnable == total && total >= 3 {
			t.Errorf("host %s still holds all %d runnable jobs: %+v", l.Name, total, loads)
		}
	}
	// Let everything finish and verify completion.
	k.Run()
	finished := 0
	for _, m := range ms {
		for _, name := range m.ProcNames() {
			pr, _ := m.Process(name)
			if pr.Status == machine.Finished && pr.ExecError == nil {
				finished++
			}
		}
	}
	if finished != jobs {
		t.Errorf("finished = %d of %d jobs", finished, jobs)
	}
}

func TestBalancerIdleWhenBalanced(t *testing.T) {
	k, ms, mgrs := cluster(t, 2)
	a := computeJob(t, ms[0], "a", 10)
	bb := computeJob(t, ms[1], "b", 10)
	ms[0].Start(a)
	ms[1].Start(bb)
	b := NewBalancer(mgrs...)
	k.Go("driver", func(p *sim.Proc) {
		moved, err := b.Rebalance(p)
		if err != nil {
			t.Error(err)
		}
		if moved {
			t.Error("balancer migrated on a balanced cluster")
		}
	})
	k.Run()
}

func TestBalancerPrefersUndispersedCandidates(t *testing.T) {
	k, ms, mgrs := cluster(t, 2)
	// jobA has been migrated before: part of its space is owed
	// elsewhere (simulated by an imaginary region). jobB is local-only.
	prA := computeJob(t, ms[0], "a-dispersed", 100)
	store := ms[1].Net.Store()
	segID := uint64(1<<41 + 5)
	sseg := store.AddSegment(segID, 16*512, 512)
	for i := uint64(0); i < 16; i++ {
		sseg.Put(i, []byte{byte(i)})
	}
	iseg := vm.NewImaginarySegment("owed", 16*512, 512, uint64(ms[1].Net.BackingPort()), segID)
	if _, err := prA.AS.MapSegment(1<<20, 16*512, iseg, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	prB := computeJob(t, ms[0], "b-local", 100)
	ms[0].Start(prA)
	ms[0].Start(prB)

	b := NewBalancer(mgrs...)
	k.Go("driver", func(p *sim.Proc) {
		moved, err := b.Rebalance(p)
		if err != nil {
			t.Error(err)
			return
		}
		if !moved {
			t.Error("balancer did not migrate")
		}
	})
	k.RunUntil(30 * time.Second)
	if _, ok := ms[1].Process("b-local"); !ok {
		t.Error("balancer did not pick the undispersed candidate")
	}
	if _, ok := ms[0].Process("a-dispersed"); !ok {
		t.Error("dispersed candidate should have stayed put")
	}
}

func TestLoadsReportResiduals(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 32, 8, 4)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("wait", func(p *sim.Proc) { npr.WaitDone(p) })
	tb.k.Run()
	b := NewBalancer(tb.srcM, tb.dstM)
	loads := b.Loads()
	if loads[0].OwedPages == 0 {
		t.Errorf("source owes no pages after lazy migration: %+v", loads)
	}
}

func TestEvacuate(t *testing.T) {
	k, ms, mgrs := cluster(t, 2)
	const jobs = 4
	for i := 0; i < jobs; i++ {
		pr := computeJob(t, ms[0], fmt.Sprintf("job%d", i), 200)
		ms[0].Start(pr)
	}
	var moved []string
	var err error
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		moved, err = mgrs[0].Evacuate(p, mgrs[1].Port.ID, Options{Strategy: PureIOU, Prefetch: 1})
	})
	k.RunUntil(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != jobs {
		t.Fatalf("moved %d of %d jobs: %v", len(moved), jobs, moved)
	}
	if got := ms[0].Procs(); got != 0 {
		t.Errorf("source still hosts %d processes", got)
	}
	if got := ms[1].Procs(); got != jobs {
		t.Errorf("destination hosts %d processes, want %d", got, jobs)
	}
	// Everything completes at the new home.
	k.Run()
	for _, name := range ms[1].ProcNames() {
		pr, _ := ms[1].Process(name)
		if pr.Status != machine.Finished || pr.ExecError != nil {
			t.Errorf("%s: status %v err %v", name, pr.Status, pr.ExecError)
		}
	}
}

func TestEvacuateSkipsFinished(t *testing.T) {
	k, ms, mgrs := cluster(t, 2)
	pr := computeJob(t, ms[0], "quick", 1)
	ms[0].Start(pr)
	var moved []string
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		moved, _ = mgrs[0].Evacuate(p, mgrs[1].Port.ID, Options{})
	})
	k.Run()
	if len(moved) != 0 {
		t.Errorf("evacuated a finished process: %v", moved)
	}
}

func TestChooseStrategy(t *testing.T) {
	k, ms, _ := cluster(t, 1)
	_ = k
	// Mostly-resident process: RS is the pick.
	a := computeJob(t, ms[0], "resident-heavy", 10)
	var addrs []vm.Addr
	for i := 0; i < 48; i++ {
		addrs = append(addrs, vm.Addr(i*512))
	}
	if err := ms[0].MakeResident(a, addrs); err != nil {
		t.Fatal(err)
	}
	if s, pf := ChooseStrategy(a); s != ResidentSet || pf != 1 {
		t.Errorf("resident-heavy: got %v/PF%d, want RS/PF1", s, pf)
	}
	// Barely-resident process: IOU.
	b := computeJob(t, ms[0], "cold", 10)
	if s, pf := ChooseStrategy(b); s != PureIOU || pf != 1 {
		t.Errorf("cold: got %v/PF%d, want IOU/PF1", s, pf)
	}
}
