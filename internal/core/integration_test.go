package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"accentmig/internal/faults"
	"accentmig/internal/ipc"

	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// TestReMigrationChainsBackers migrates a process A->B, lets it touch a
// few pages, then migrates B->C. Pages still owed by A's cache must
// reach C through the chain of NetMsgServers, and the data must be
// intact.
func TestReMigrationChainsBackers(t *testing.T) {
	k, ms, mgrs := cluster(t, 3)
	pr, err := ms[0].NewProcess("hopper", 1)
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
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.MigratePoint{}, // hop 1
		trace.Touch{Addr: 0},
		trace.Touch{Addr: 512},
		trace.MigratePoint{},        // hop 2
		trace.Touch{Addr: 2 * 512},  // fetched on B? no — still owed by A
		trace.Touch{Addr: 20 * 512}, // never touched anywhere: owed by A, via chain
	}}
	ms[0].Start(pr)
	var hopErr error
	k.Go("driver", func(p *sim.Proc) {
		if _, err := mgrs[0].MigrateTo(p, "hopper", mgrs[1].Port.ID, Options{Strategy: PureIOU}); err != nil {
			hopErr = err
			return
		}
		pr2, _ := ms[1].Process("hopper")
		pr2.AtMigrate.Wait(p) // executes touches, then parks at hop 2
		if _, err := mgrs[1].MigrateTo(p, "hopper", mgrs[2].Port.ID, Options{Strategy: PureIOU}); err != nil {
			hopErr = err
			return
		}
		pr3, _ := ms[2].Process("hopper")
		if err := pr3.WaitDone(p); err != nil {
			hopErr = err
			return
		}
		// Verify data on the third host, including a page that crossed
		// both hops lazily.
		for _, idx := range []uint64{0, 2, 20, 31} {
			got, err := ms[2].Pager.Read(p, pr3.AS, vm.Addr(idx*512), 512)
			if err != nil {
				hopErr = err
				return
			}
			want := pattern(idx)
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("page %d corrupt at byte %d after two hops", idx, j)
					return
				}
			}
		}
	})
	k.Run()
	if hopErr != nil {
		t.Fatal(hopErr)
	}
	if _, ok := ms[2].Process("hopper"); !ok {
		t.Fatal("process not on third host")
	}
}

// TestMigrationOverLossyLink injects 10% frame loss: bulk transfers
// recover via ARQ, and lost fault datagrams recover via pager retry.
func TestMigrationOverLossyLink(t *testing.T) {
	k := sim.New()
	cfg := machine.Config{
		Pager: pager.Config{RetryTimeout: 2 * time.Second, MaxRetries: 20},
	}
	src := machine.New(k, "src", cfg)
	dst := machine.New(k, "dst", cfg)
	link := machine.Connect(src, dst, netlink.Config{})
	link.SetFaults(faults.NewInjector(faults.FromDropRate(0.10, 99), ""))
	srcM := NewManager(src, DefaultTuning())
	dstM := NewManager(dst, DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")

	pr, err := src.NewProcess("job", 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, 64*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		pg := reg.Seg.Materialize(i, pattern(i))
		pg.State.OnDisk = true
	}
	ops := []trace.Op{trace.MigratePoint{}}
	for i := 0; i < 32; i++ {
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	pr.Program = &trace.Program{Ops: ops}
	src.Start(pr)

	var migErr error
	k.Go("driver", func(p *sim.Proc) {
		if _, err := srcM.MigrateTo(p, "job", dstM.Port.ID, Options{Strategy: PureIOU}); err != nil {
			migErr = err
			return
		}
		npr, _ := dst.Process("job")
		if err := npr.WaitDone(p); err != nil {
			migErr = err
			return
		}
		// Spot-check integrity under loss.
		got, err := dst.Pager.Read(p, npr.AS, 17*512, 512)
		if err != nil {
			migErr = err
			return
		}
		want := pattern(17)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("page 17 corrupt at byte %d", j)
				return
			}
		}
	})
	k.RunUntil(30 * time.Minute)
	if migErr != nil {
		t.Fatal(migErr)
	}
	if link.Drops() == 0 {
		t.Error("no frames dropped; loss injection inert")
	}
	// Either the pager retried lost fault messages or the ARQ resent
	// bulk fragments (with 10% loss over this much traffic, both).
	if dst.Pager.Stats().Retries == 0 && src.Net.Stats().Retransmits == 0 {
		t.Error("no recovery activity despite drops")
	}
}

// TestQuickMigrationPreservesAMap: for arbitrary sparse layouts and any
// strategy, the destination address space classifies every address
// exactly as the source did at excision time.
func TestQuickMigrationPreservesAMap(t *testing.T) {
	f := func(starts []uint8, lens []uint8, touched []uint16, stratPick uint8) bool {
		if len(starts) == 0 {
			return true
		}
		strat := []Strategy{PureCopy, ResidentSet, PureIOU}[int(stratPick)%3]
		tb := newTestbed(t)
		pr, err := tb.src.NewProcess("q", 0)
		if err != nil {
			return false
		}
		// Random sparse layout: regions at 16-page alignment, 1-8 pages.
		var regions []*vm.Region
		for i, s := range starts {
			pages := uint64(1)
			if i < len(lens) {
				pages = uint64(lens[i]%8) + 1
			}
			r, err := pr.AS.Validate(vm.Addr(uint64(s)*16*512), pages*512, "r")
			if err != nil {
				continue // overlap
			}
			regions = append(regions, r)
		}
		if len(regions) == 0 {
			return true
		}
		// Materialize a scattering of pages; some resident.
		for i, tc := range touched {
			r := regions[i%len(regions)]
			idx := uint64(tc) % (r.Size() / 512)
			if r.Seg.Page(idx) == nil {
				pg := r.Seg.Materialize(idx, []byte{byte(tc)})
				pg.State.OnDisk = true
				if tc%3 == 0 {
					tb.src.Phys.Insert(r.Seg, idx)
				}
			}
		}
		before := vm.BuildAMap(pr.AS)
		pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
		tb.src.Start(pr)
		var after *vm.AMap
		tb.k.Go("driver", func(p *sim.Proc) {
			if _, err := tb.srcM.MigrateTo(p, "q", tb.dstM.Port.ID, Options{
				Strategy: strat, HoldAtDest: true,
			}); err != nil {
				t.Logf("migrate: %v", err)
				return
			}
			npr, _ := tb.dst.Process("q")
			after = vm.BuildAMap(npr.AS)
		})
		tb.k.Run()
		if after == nil {
			return false
		}
		// Normalize: a RealMem run may legitimately arrive as ImagMem
		// (owed, not yet fetched) under the lazy strategies — the data
		// is reachable either way. RealZero and BadMem must be exact.
		norm := func(a vm.Accessibility) vm.Accessibility {
			if a == vm.ImagMem {
				return vm.RealMem
			}
			return a
		}
		// Compare page-by-page classification across the whole span.
		maxAddr := before.Entries[len(before.Entries)-1].End
		if after.Entries[len(after.Entries)-1].End != maxAddr {
			return false
		}
		for a := vm.Addr(0); a < maxAddr; a += 512 {
			if norm(before.Classify(a)) != norm(after.Classify(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBackerCrashSurfacesError: if the source host (the backer) dies
// while a lazily migrated process still owes pages, remote faults fail
// with ErrBackerLost (after retries) rather than hanging — the residual
// dependency §4.4.3 implies and DissolveIOUs removes.
func TestBackerCrashSurfacesError(t *testing.T) {
	k := sim.New()
	cfg := machine.Config{
		Pager: pager.Config{RetryTimeout: time.Second, MaxRetries: 2},
	}
	src := machine.New(k, "src", cfg)
	dst := machine.New(k, "dst", cfg)
	machine.Connect(src, dst, netlink.Config{})
	srcM := NewManager(src, DefaultTuning())
	dstM := NewManager(dst, DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")

	pr, err := src.NewProcess("job", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, 16*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		pg := reg.Seg.Materialize(i, pattern(i))
		pg.State.OnDisk = true
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.MigratePoint{},
		trace.Touch{Addr: 0},         // succeeds: backer alive
		trace.IOWait{D: time.Minute}, // crash happens here
		trace.Touch{Addr: 8 * 512},   // fails: backer gone
	}}
	src.Start(pr)

	var execErr error
	k.Go("driver", func(p *sim.Proc) {
		if _, err := srcM.MigrateTo(p, "job", dstM.Port.ID, Options{Strategy: PureIOU}); err != nil {
			t.Error(err)
			return
		}
		// "Crash" the source's backing service mid-run.
		p.Sleep(30 * time.Second)
		src.Net.Crash()
		npr, _ := dst.Process("job")
		execErr = npr.WaitDone(p)
	})
	k.RunUntil(time.Hour)
	if execErr == nil {
		t.Fatal("remote execution survived a dead backer")
	}
	if !errors.Is(execErr, pager.ErrBackerLost) && !errors.Is(execErr, ipc.ErrDeadPort) {
		t.Errorf("err = %v, want backer-lost or dead-port", execErr)
	}
}

// TestDissolveProtectsAgainstBackerCrash: flushing the IOUs first makes
// the same crash harmless.
func TestDissolveProtectsAgainstBackerCrash(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 16, 4, 0)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("driver", func(p *sim.Proc) {
		if _, err := DissolveIOUs(p, tb.dst, npr); err != nil {
			t.Errorf("dissolve: %v", err)
			return
		}
		tb.src.Net.Crash()
		// Every page is local; the crash cannot hurt.
		for i := uint64(0); i < 16; i++ {
			if err := tb.dst.Pager.Touch(p, npr.AS, vm.Addr(i*512), false); err != nil {
				t.Errorf("touch %d after crash: %v", i, err)
				return
			}
		}
	})
	tb.k.Run()
}

// TestPendingMailSurvivesMigration: a message queued on the process's
// port before excision is receivable at the destination.
func TestPendingMailSurvivesMigration(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 8, 2, 0)
	portID := pr.Ports[0].ID
	tb.src.Start(pr)
	tb.k.Go("mailer", func(p *sim.Proc) {
		// Queue mail before the migration driver runs.
		if err := tb.src.IPC.Send(p, &ipc.Message{To: portID, Op: 77, Body: "hello", BodyBytes: 5}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, _ := tb.dst.Process("job")
	var got *ipc.Message
	tb.k.Go("reader", func(p *sim.Proc) {
		got = tb.dst.IPC.Receive(p, npr.Ports[0])
	})
	tb.k.Run()
	if got == nil || got.Op != 77 || got.Body.(string) != "hello" {
		t.Fatalf("pending mail lost in migration: %+v", got)
	}
}

// TestCrossMigration swaps two processes between two machines
// concurrently — both directions in flight at once.
func TestCrossMigration(t *testing.T) {
	tb := newTestbed(t)
	a := tb.makeProc(t, "jobA", 16, 4, 6)
	tb.src.Start(a)
	// Build a second process on the destination machine, symmetric.
	b, err := tb.dst.NewProcess("jobB", 1)
	if err != nil {
		t.Fatal(err)
	}
	regB, err := b.AS.Validate(0, 16*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		pg := regB.Seg.Materialize(i, pattern(100+i))
		pg.State.OnDisk = true
	}
	var opsB []trace.Op
	opsB = append(opsB, trace.MigratePoint{})
	for i := 0; i < 6; i++ {
		opsB = append(opsB, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	b.Program = &trace.Program{Ops: opsB}
	tb.dst.Start(b)

	var errA, errB error
	tb.k.Go("driverA", func(p *sim.Proc) {
		_, errA = tb.srcM.MigrateTo(p, "jobA", tb.dstM.Port.ID, Options{Strategy: PureIOU})
	})
	tb.k.Go("driverB", func(p *sim.Proc) {
		_, errB = tb.dstM.MigrateTo(p, "jobB", tb.srcM.Port.ID, Options{Strategy: PureIOU})
	})
	tb.k.Run()
	if errA != nil || errB != nil {
		t.Fatalf("cross migration failed: %v / %v", errA, errB)
	}
	na, okA := tb.dst.Process("jobA")
	nb, okB := tb.src.Process("jobB")
	if !okA || !okB {
		t.Fatal("processes did not swap hosts")
	}
	var doneErrs [2]error
	tb.k.Go("waiters", func(p *sim.Proc) {
		doneErrs[0] = na.WaitDone(p)
		doneErrs[1] = nb.WaitDone(p)
	})
	tb.k.Run()
	if doneErrs[0] != nil || doneErrs[1] != nil {
		t.Fatalf("remote exec: %v / %v", doneErrs[0], doneErrs[1])
	}
	// Both sides now back pages for the other.
	if tb.src.Net.Store().TotalRemaining() == 0 || tb.dst.Net.Store().TotalRemaining() == 0 {
		t.Error("expected mutual residual dependencies after a swap")
	}
}
