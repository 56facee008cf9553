package machine

import (
	"testing"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

func TestNewProcessAndPorts(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, err := m.NewProcess("job", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Ports) != 3 {
		t.Errorf("ports = %d", len(pr.Ports))
	}
	if pr.ContextBytes() != 1024 {
		t.Errorf("ContextBytes = %d, want 1024", pr.ContextBytes())
	}
	if _, err := m.NewProcess("job", 0); err == nil {
		t.Error("duplicate process accepted")
	}
	if m.Procs() != 1 {
		t.Errorf("Procs = %d", m.Procs())
	}
}

func TestExecComputeAndTouch(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.AS.Validate(0, 8*512, "data")
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.Compute{D: 100 * time.Millisecond},
		trace.Touch{Addr: 0},
		trace.Touch{Addr: 512, Write: true},
	}}
	m.Start(pr)
	var done time.Duration
	k.Go("wait", func(p *sim.Proc) {
		if err := pr.WaitDone(p); err != nil {
			t.Errorf("exec: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	if pr.Status != Finished {
		t.Errorf("status = %v", pr.Status)
	}
	// 100ms compute + 2 FillZero faults at 3ms.
	if done != 106*time.Millisecond {
		t.Errorf("finished at %v, want 106ms", done)
	}
	if st := m.Pager.Stats(); st.FillZero != 2 {
		t.Errorf("FillZero = %d", st.FillZero)
	}
}

func TestExecStopsAtMigratePoint(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.AS.Validate(0, 4*512, "data")
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.Touch{Addr: 0},
		trace.MigratePoint{},
		trace.Touch{Addr: 512},
	}}
	m.Start(pr)
	reached := false
	k.Go("mgr", func(p *sim.Proc) {
		pr.AtMigrate.Wait(p)
		reached = true
	})
	k.Run()
	if !reached {
		t.Fatal("migration point never reached")
	}
	if pr.Status != AtMigrationPoint {
		t.Errorf("status = %v", pr.Status)
	}
	if pr.PC != 2 {
		t.Errorf("PC = %d, want 2 (past the MigratePoint)", pr.PC)
	}
	if pr.Done.Opened() {
		t.Error("Done opened at migration point")
	}
	// Resuming from the saved PC executes only the tail.
	m.Start(pr)
	k.Run()
	if pr.Status != Finished {
		t.Errorf("status after resume = %v", pr.Status)
	}
	if st := m.Pager.Stats(); st.FillZero != 2 {
		t.Errorf("FillZero = %d, want 2", st.FillZero)
	}
}

func TestExecSeqScanAndWSLoop(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.AS.Validate(0, 64*512, "data")
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.SeqScan{Start: 0, Bytes: 8 * 512},
		trace.WSLoop{Start: 0, Pages: 4, Iters: 10, Compute: time.Millisecond},
	}}
	m.Start(pr)
	k.Run()
	if pr.Status != Finished {
		t.Fatalf("status = %v, err = %v", pr.Status, pr.ExecError)
	}
	// SeqScan faults 8 pages; WSLoop touches only already-resident ones.
	if st := m.Pager.Stats(); st.FillZero != 8 {
		t.Errorf("FillZero = %d, want 8", st.FillZero)
	}
}

func TestExecErrorSurfaced(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.Program = &trace.Program{Ops: []trace.Op{trace.Touch{Addr: 0x99999}}}
	m.Start(pr)
	var err error
	k.Go("wait", func(p *sim.Proc) { err = pr.WaitDone(p) })
	k.Run()
	if err == nil {
		t.Error("BadMem touch did not surface an error")
	}
}

func TestMakeResident(t *testing.T) {
	k := sim.New()
	m := New(k, "host", Config{})
	pr, _ := m.NewProcess("job", 0)
	pr.AS.Validate(0, 8*512, "data")
	if err := m.MakeResident(pr, []vm.Addr{0, 512, 2 * 512}); err != nil {
		t.Fatal(err)
	}
	u := pr.AS.Usage()
	if u.Resident != 3*512 {
		t.Errorf("Resident = %d, want %d", u.Resident, 3*512)
	}
	if err := m.MakeResident(pr, []vm.Addr{0xffff000}); err == nil {
		t.Error("MakeResident accepted a bad address")
	}
}

func TestConnectMachines(t *testing.T) {
	k := sim.New()
	a := New(k, "A", Config{})
	b := New(k, "B", Config{})
	link := Connect(a, b, netlink.Config{})
	if link == nil {
		t.Fatal("no link")
	}
	dst := b.IPC.AllocPort("svc")
	a.Net.AddRoute(dst.ID, "B")
	got := false
	k.Go("rx", func(p *sim.Proc) {
		b.IPC.Receive(p, dst)
		got = true
	})
	k.Go("tx", func(p *sim.Proc) {
		if err := a.IPC.Send(p, &ipc.Message{To: dst.ID, BodyBytes: 4}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run()
	if !got {
		t.Error("cross-machine message not delivered")
	}
}
