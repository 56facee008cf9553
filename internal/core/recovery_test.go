package core

import (
	"errors"
	"testing"
	"time"

	"accentmig/internal/faults"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// newFaultTestbed is newTestbed with configurable link and machine
// configs, for recovery tests that need loss, partitions, or orphan
// policies.
func newFaultTestbed(t *testing.T, linkCfg netlink.Config, mcfg machine.Config) *testbed {
	t.Helper()
	k := sim.New()
	src := machine.New(k, "src", mcfg)
	dst := machine.New(k, "dst", mcfg)
	link := machine.Connect(src, dst, linkCfg)
	srcM := NewManager(src, DefaultTuning())
	dstM := NewManager(dst, DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")
	return &testbed{k: k, src: src, dst: dst, srcM: srcM, dstM: dstM, link: link}
}

func TestDegradeLadder(t *testing.T) {
	if got := Degrade(PureIOU); got != ResidentSet {
		t.Errorf("Degrade(PureIOU) = %v, want ResidentSet", got)
	}
	if got := Degrade(ResidentSet); got != PureCopy {
		t.Errorf("Degrade(ResidentSet) = %v, want PureCopy", got)
	}
	// PureCopy is the ladder's fixed point.
	if got := Degrade(PureCopy); got != PureCopy {
		t.Errorf("Degrade(PureCopy) = %v, want PureCopy", got)
	}
}

// TestAbortRollsBackAndResumesLocally: when every attempt fails, the
// process must be rolled back onto the source — memory intact — and
// resume execution there as if migration had never been tried.
func TestAbortRollsBackAndResumesLocally(t *testing.T) {
	tb := newFaultTestbed(t, netlink.Config{}, machine.Config{})
	tb.link.SetFaults(faults.NewInjector(faults.FromDropRate(1.0, 5), ""))
	pr := tb.makeProc(t, "job", 16, 4, 6)
	tb.src.Start(pr)
	var rep *Report
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		rep, err = tb.srcM.MigrateTo(p, "job", tb.dstM.Port.ID, Options{
			Strategy:   PureIOU,
			AckTimeout: 5 * time.Second, MaxRetries: 1, Degrade: true,
		})
	})
	tb.k.Run()
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted", err)
	}
	if rep != nil {
		t.Errorf("aborted migration returned a report: %+v", rep)
	}
	if _, ok := tb.dst.Process("job"); ok {
		t.Error("process appeared on destination despite the abort")
	}
	npr, ok := tb.src.Process("job")
	if !ok {
		t.Fatal("process missing from source after rollback")
	}
	// resumeLocal restarted it; the first k.Run let it finish locally.
	var execErr error
	tb.k.Go("wait", func(p *sim.Proc) { execErr = npr.WaitDone(p) })
	tb.k.Run()
	if execErr != nil {
		t.Fatalf("local execution after rollback: %v", execErr)
	}
	if npr.Status != machine.Finished {
		t.Errorf("status = %v, want Finished", npr.Status)
	}
	// Rollback must have reinstated the original page contents.
	tb.k.Go("verify", func(p *sim.Proc) {
		for i := uint64(0); i < 16; i++ {
			got, err := tb.src.Pager.Read(p, npr.AS, vm.Addr(i*512), 512)
			if err != nil {
				t.Errorf("page %d after rollback: %v", i, err)
				return
			}
			want := pattern(i)
			for j := range want {
				if got[j] != want[j] {
					t.Errorf("page %d corrupt at byte %d after rollback", i, j)
					return
				}
			}
		}
	})
	tb.k.Run()
}

// TestRetryDegradesAndSucceeds: a partition that outlives the first
// attempt but heals during the retry backoff produces a successful
// second attempt at the degraded strategy.
func TestRetryDegradesAndSucceeds(t *testing.T) {
	tb := newFaultTestbed(t, netlink.Config{}, machine.Config{})
	tb.link.SetFaults(faults.NewInjector(&faults.Plan{
		Seed:       1,
		Partitions: []faults.Window{{Start: 0, End: faults.Duration(8 * time.Second)}},
	}, ""))
	pr := tb.makeProc(t, "job", 16, 4, 4)
	tb.src.Start(pr)
	var rep *Report
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		rep, err = tb.srcM.MigrateTo(p, "job", tb.dstM.Port.ID, Options{
			Strategy:   PureIOU,
			AckTimeout: 5 * time.Second, MaxRetries: 2, Degrade: true,
		})
	})
	tb.k.Run()
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if rep.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (first killed by the partition)", rep.Attempts)
	}
	if rep.FinalStrategy != ResidentSet {
		t.Errorf("FinalStrategy = %v, want ResidentSet after one degradation", rep.FinalStrategy)
	}
	if _, ok := tb.src.Process("job"); ok {
		t.Error("process still on source after successful retry")
	}
	npr, ok := tb.dst.Process("job")
	if !ok {
		t.Fatal("process missing on destination")
	}
	var execErr error
	tb.k.Go("wait", func(p *sim.Proc) { execErr = npr.WaitDone(p) })
	tb.k.Run()
	if execErr != nil {
		t.Fatalf("remote execution after retry: %v", execErr)
	}
	if st := tb.src.Net.Stats(); st.Retransmits == 0 {
		t.Error("no retransmits recorded across the partition")
	}
}

// TestOrphanPolicies walks the three fates of IOUs whose backer
// crashes after a pure-IOU migration: fail surfaces ErrBackerLost,
// zerofill lets the process limp to completion on zero pages, and an
// eager dissolve beforehand makes the crash invisible.
func TestOrphanPolicies(t *testing.T) {
	build := func(t *testing.T, policy pager.OrphanPolicy) (*testbed, *machine.Process) {
		t.Helper()
		mcfg := machine.Config{Pager: pager.Config{
			RetryTimeout: time.Second, MaxRetries: 2, Orphan: policy,
		}}
		tb := newFaultTestbed(t, netlink.Config{}, mcfg)
		pr := tb.makeProc(t, "job", 24, 4, 12)
		tb.src.Start(pr)
		tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
		npr, ok := tb.dst.Process("job")
		if !ok {
			t.Fatal("process missing on destination")
		}
		return tb, npr
	}
	crashAndRun := func(tb *testbed, npr *machine.Process) error {
		tb.src.Net.Crash()
		tb.dst.Start(npr)
		var execErr error
		tb.k.Go("wait", func(p *sim.Proc) { execErr = npr.WaitDone(p) })
		tb.k.Run()
		return execErr
	}

	t.Run("fail", func(t *testing.T) {
		tb, npr := build(t, pager.OrphanFail)
		err := crashAndRun(tb, npr)
		if !errors.Is(err, pager.ErrBackerLost) {
			t.Errorf("err = %v, want ErrBackerLost", err)
		}
	})

	t.Run("zerofill", func(t *testing.T) {
		tb, npr := build(t, pager.OrphanZeroFill)
		if err := crashAndRun(tb, npr); err != nil {
			t.Fatalf("zerofill run failed: %v", err)
		}
		if npr.Status != machine.Finished {
			t.Errorf("status = %v, want Finished", npr.Status)
		}
		if zf := tb.dst.Pager.Stats().ZeroFills; zf == 0 {
			t.Error("no zero-filled orphan faults recorded")
		}
	})

	t.Run("flush", func(t *testing.T) {
		tb, npr := build(t, pager.OrphanFail)
		var execErr error
		tb.k.Go("driver", func(p *sim.Proc) {
			if _, err := DissolveIOUs(p, tb.dst, npr); err != nil {
				t.Errorf("dissolve: %v", err)
				return
			}
			tb.src.Net.Crash()
			tb.dst.Start(npr)
			execErr = npr.WaitDone(p)
		})
		tb.k.Run()
		if execErr != nil {
			t.Errorf("run after dissolve+crash: %v", execErr)
		}
		if zf := tb.dst.Pager.Stats().ZeroFills; zf != 0 {
			t.Errorf("ZeroFills = %d, want 0 (every page was dissolved)", zf)
		}
	})
}
