package core

import (
	"testing"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// writerProc builds a process that keeps writing to a window of pages —
// the adversarial case for pre-copy, since every round re-dirties data.
func (tb *testbed) writerProc(t *testing.T, name string, pages, hotPages, bursts int) *machine.Process {
	t.Helper()
	pr, err := tb.src.NewProcess(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, uint64(pages)*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		pg := reg.Seg.Materialize(uint64(i), pattern(uint64(i)))
		pg.State.OnDisk = true
	}
	var ops []trace.Op
	for b := 0; b < bursts; b++ {
		ops = append(ops,
			trace.Compute{D: 100 * time.Millisecond},
			trace.Touch{Addr: vm.Addr(512 * (b % hotPages)), Write: true},
		)
	}
	ops = append(ops, trace.Compute{D: 200 * time.Millisecond})
	pr.Program = &trace.Program{Ops: ops}
	return pr
}

func TestPreCopyMigration(t *testing.T) {
	tb := newTestbed(t)
	tb.writerProc(t, "writer", 64, 8, 60)
	pr, _ := tb.src.Process("writer")
	tb.src.Start(pr)

	var rep *PreCopyReport
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second) // let it run and dirty some pages
		rep, err = tb.srcM.PreCopyTo(p, "writer", tb.dstM.Port.ID)
	})
	tb.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProcCompleted {
		t.Fatal("process finished before migration; lengthen the program")
	}
	if len(rep.Rounds) == 0 {
		t.Fatal("no pre-copy rounds ran")
	}
	// First round ships (almost) everything; later rounds only dirt.
	if rep.Rounds[0] < 50 {
		t.Errorf("round 0 sent %d pages, want most of 64", rep.Rounds[0])
	}
	if len(rep.Rounds) > 1 && rep.Rounds[1] >= rep.Rounds[0] {
		t.Errorf("round 1 (%d) not smaller than round 0 (%d)", rep.Rounds[1], rep.Rounds[0])
	}
	// The process must resume at the destination and finish correctly.
	npr, ok := tb.dst.Process("writer")
	if !ok {
		t.Fatal("process not at destination")
	}
	var execErr error
	tb.k.Go("wait", func(p *sim.Proc) { execErr = npr.WaitDone(p) })
	tb.k.Run()
	if execErr != nil {
		t.Fatalf("remote execution: %v", execErr)
	}
	if npr.Status != machine.Finished {
		t.Errorf("status = %v", npr.Status)
	}
}

func TestPreCopyDataIntegrityUnderWrites(t *testing.T) {
	// The crucial property: pages dirtied *during* the copy rounds must
	// arrive with their final contents.
	tb := newTestbed(t)
	pr, err := tb.src.NewProcess("writer", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, 32*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		pg := reg.Seg.Materialize(i, pattern(i))
		pg.State.OnDisk = true
	}
	// The program overwrites page 5 repeatedly, then stops touching it.
	var ops []trace.Op
	for b := 0; b < 40; b++ {
		ops = append(ops,
			trace.Compute{D: 100 * time.Millisecond},
			trace.Touch{Addr: 5 * 512, Write: true},
		)
	}
	ops = append(ops, trace.Compute{D: 10 * time.Second})
	pr.Program = &trace.Program{Ops: ops}
	tb.src.Start(pr)

	tb.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		if _, err := tb.srcM.PreCopyTo(p, "writer", tb.dstM.Port.ID); err != nil {
			t.Errorf("PreCopyTo: %v", err)
			return
		}
		npr, ok := tb.dst.Process("writer")
		if !ok {
			t.Error("process not at destination")
			return
		}
		// Page 5's content at the destination must be the source's final
		// content. Simulated writes bump versions without changing bytes,
		// so that is still pattern(5); the source frame itself was
		// recycled when the process was excised, so compare against the
		// pattern, not the dead segment.
		want5 := pattern(5)
		got, err := tb.dst.Pager.Read(p, npr.AS, 5*512, 512)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		for j := range got {
			if got[j] != want5[j] {
				t.Errorf("page 5 byte %d: %d != %d (final write lost)", j, got[j], want5[j])
				return
			}
		}
		// Untouched page 20 carries the original pattern.
		got20, err := tb.dst.Pager.Read(p, npr.AS, 20*512, 512)
		if err != nil {
			t.Errorf("read20: %v", err)
			return
		}
		want := pattern(20)
		for j := range got20 {
			if got20[j] != want[j] {
				t.Errorf("page 20 corrupted at %d", j)
				return
			}
		}
	})
	tb.k.Run()
}

func TestPreCopyDowntimeBeatsPureCopy(t *testing.T) {
	// Theimer's pitch: downtime shrinks versus stop-and-copy, while the
	// total cost does not.
	downFor := func(pre bool) (time.Duration, uint64) {
		tb := newTestbed(t)
		tb.writerProc(t, "job", 128, 16, 1000)
		pr, _ := tb.src.Process("job")
		tb.src.Start(pr)
		var down time.Duration
		tb.k.Go("driver", func(p *sim.Proc) {
			p.Sleep(time.Second)
			if pre {
				rep, err := tb.srcM.PreCopyTo(p, "job", tb.dstM.Port.ID)
				if err != nil {
					t.Error(err)
					return
				}
				down = rep.Downtime
			} else {
				tb.src.RequestPreempt(pr)
				if !tb.src.WaitStopped(p, pr) {
					t.Error("job finished early")
					return
				}
				start := p.Now()
				rep, err := tb.srcM.MigrateTo(p, "job", tb.dstM.Port.ID, Options{Strategy: PureCopy})
				if err != nil {
					t.Error(err)
					return
				}
				down = rep.InsertDoneAt - start
			}
		})
		tb.k.RunUntil(20 * time.Minute)
		return down, tb.link.Bytes()
	}
	preDown, preBytes := downFor(true)
	copyDown, copyBytes := downFor(false)
	if preDown == 0 || copyDown == 0 {
		t.Fatal("a migration did not complete")
	}
	if preDown >= copyDown/2 {
		t.Errorf("pre-copy downtime %v not well below stop-and-copy %v", preDown, copyDown)
	}
	// Both hosts still pay the full transfer (and more, for re-dirtied
	// pages).
	if preBytes < copyBytes {
		t.Errorf("pre-copy moved fewer bytes (%d) than pure copy (%d)", preBytes, copyBytes)
	}
}

func TestPreCopyOnFinishedProcess(t *testing.T) {
	tb := newTestbed(t)
	tb.writerProc(t, "quick", 8, 2, 1)
	pr, _ := tb.src.Process("quick")
	tb.src.Start(pr)
	var rep *PreCopyReport
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Minute) // long after the program ends
		rep, err = tb.srcM.PreCopyTo(p, "quick", tb.dstM.Port.ID)
	})
	tb.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ProcCompleted {
		t.Error("report does not flag completion-before-migration")
	}
	if _, ok := tb.src.Process("quick"); !ok {
		t.Error("finished process vanished from the source")
	}
}

func TestDissolveIOUs(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 40, 8, 5)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU})
	npr, _ := tb.dst.Process("job")
	var fetched int
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		npr.WaitDone(p)
		fetched, err = DissolveIOUs(p, tb.dst, npr)
	})
	tb.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 40 real pages, 5 fetched by execution: 35 flushed.
	if fetched != 35 {
		t.Errorf("dissolved %d pages, want 35", fetched)
	}
	if rem := tb.src.Net.Store().TotalRemaining(); rem != 0 {
		t.Errorf("source still owes %d pages after dissolve", rem)
	}
	// Everything local now: touching any page costs no network.
	before := tb.link.Bytes()
	tb.k.Go("verify", func(p *sim.Proc) {
		for i := uint64(0); i < 40; i++ {
			if err := tb.dst.Pager.Touch(p, npr.AS, vm.Addr(i*512), false); err != nil {
				t.Errorf("touch %d: %v", i, err)
				return
			}
		}
	})
	tb.k.Run()
	if tb.link.Bytes() != before {
		t.Errorf("post-dissolve touches still hit the network (%d extra bytes)", tb.link.Bytes()-before)
	}
	// Data integrity after flush.
	tb.k.Go("check", func(p *sim.Proc) {
		got, err := tb.dst.Pager.Read(p, npr.AS, 30*512, 512)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		want := pattern(30)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("flushed page corrupt at byte %d", j)
				return
			}
		}
	})
	tb.k.Run()
}

func TestDissolveIdempotent(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 16, 4, 0)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("driver", func(p *sim.Proc) {
		n1, err := DissolveIOUs(p, tb.dst, npr)
		if err != nil {
			t.Error(err)
			return
		}
		n2, err := DissolveIOUs(p, tb.dst, npr)
		if err != nil {
			t.Error(err)
			return
		}
		if n1 != 16 || n2 != 0 {
			t.Errorf("dissolve counts = %d, %d; want 16, 0", n1, n2)
		}
	})
	tb.k.Run()
}
