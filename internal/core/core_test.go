package core

import (
	"testing"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// testbed is a two-machine rig with managers, mirroring the SPICE pair.
type testbed struct {
	k          *sim.Kernel
	src, dst   *machine.Machine
	srcM, dstM *Manager
	link       *netlink.Link
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	k := sim.New()
	src := machine.New(k, "src", machine.Config{})
	dst := machine.New(k, "dst", machine.Config{})
	link := machine.Connect(src, dst, netlink.Config{})
	srcM := NewManager(src, DefaultTuning())
	dstM := NewManager(dst, DefaultTuning())
	// Bootstrap: each side can name the other's manager port.
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")
	return &testbed{k: k, src: src, dst: dst, srcM: srcM, dstM: dstM, link: link}
}

// pattern fills a page deterministically so integrity can be verified
// after migration.
func pattern(pageIdx uint64) []byte {
	d := make([]byte, 512)
	for i := range d {
		d[i] = byte(pageIdx*31 + uint64(i)*7)
	}
	return d
}

// makeProc builds a process with `pages` pages of patterned RealMem (the
// first `resident` of them resident), a zero region, and a program that
// touches the first two pages, migrates, then touches `post` pages.
func (tb *testbed) makeProc(t *testing.T, name string, pages, resident, post int) *machine.Process {
	t.Helper()
	pr, err := tb.src.NewProcess(name, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pr.AS.Validate(0, uint64(pages)*512, "data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.AS.Validate(1<<20, 16*512, "bss"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		pg := reg.Seg.Materialize(uint64(i), pattern(uint64(i)))
		pg.State.OnDisk = true
	}
	var res []vm.Addr
	for i := 0; i < resident; i++ {
		res = append(res, vm.Addr(i*512))
	}
	if err := tb.src.MakeResident(pr, res); err != nil {
		t.Fatal(err)
	}
	ops := []trace.Op{
		trace.Touch{Addr: 0},
		trace.Touch{Addr: 512},
		trace.MigratePoint{},
	}
	for i := 0; i < post; i++ {
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	pr.Program = &trace.Program{Ops: ops}
	return pr
}

func (tb *testbed) migrate(t *testing.T, name string, opts Options) *Report {
	t.Helper()
	var rep *Report
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		rep, err = tb.srcM.MigrateTo(p, name, tb.dstM.Port.ID, opts)
	})
	tb.k.Run()
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	return rep
}

func TestMigratePureIOUEndToEnd(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 32, 8, 10)
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureIOU})

	// Source no longer has the process; destination does.
	if _, ok := tb.src.Process("job"); ok {
		t.Error("process still on source after migration")
	}
	npr, ok := tb.dst.Process("job")
	if !ok {
		t.Fatal("process missing on destination")
	}
	var err2 error
	tb.k.Go("wait", func(p *sim.Proc) { err2 = npr.WaitDone(p) })
	tb.k.Run()
	if err2 != nil {
		t.Fatalf("remote execution failed: %v", err2)
	}
	if npr.Status != machine.Finished {
		t.Errorf("status = %v", npr.Status)
	}
	// The post-phase touched 10 pages; under pure IOU they arrive via
	// imaginary faults (minus the ones that already... none prefetched).
	if st := tb.dst.Pager.Stats(); st.ImagFaults != 10 {
		t.Errorf("ImagFaults = %d, want 10", st.ImagFaults)
	}
	// Only ~10 of 32 pages crossed the wire.
	if tb.link.Bytes() > 14*1024 {
		t.Errorf("wire bytes = %d, want well under full copy", tb.link.Bytes())
	}
	if rep.RealPages != 32 || rep.ResidentPages != 8 {
		t.Errorf("report pages = %d/%d", rep.RealPages, rep.ResidentPages)
	}
}

func TestMigrateDataIntegrityAllStrategies(t *testing.T) {
	for _, strat := range Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			tb := newTestbed(t)
			pr := tb.makeProc(t, "job", 16, 4, 0)
			tb.src.Start(pr)
			tb.migrate(t, "job", Options{Strategy: strat, HoldAtDest: true})
			npr, ok := tb.dst.Process("job")
			if !ok {
				t.Fatal("process missing on destination")
			}
			// Read every page remotely and verify the pattern.
			tb.k.Go("verify", func(p *sim.Proc) {
				for i := uint64(0); i < 16; i++ {
					got, err := tb.dst.Pager.Read(p, npr.AS, vm.Addr(i*512), 512)
					if err != nil {
						t.Errorf("page %d: %v", i, err)
						return
					}
					want := pattern(i)
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("strategy %v: page %d corrupt at byte %d: %d != %d",
								strat, i, j, got[j], want[j])
							return
						}
					}
				}
				// Zero region must read as zeros.
				z, err := tb.dst.Pager.Read(p, npr.AS, 1<<20, 512)
				if err != nil {
					t.Errorf("zero region: %v", err)
					return
				}
				for _, b := range z {
					if b != 0 {
						t.Error("zero region not zero after migration")
						return
					}
				}
			})
			tb.k.Run()
		})
	}
}

func TestStrategiesShapeWireTraffic(t *testing.T) {
	bytesFor := func(strat Strategy) uint64 {
		tb := newTestbed(t)
		pr := tb.makeProc(t, "job", 64, 16, 4)
		tb.src.Start(pr)
		tb.migrate(t, "job", Options{Strategy: strat})
		npr, _ := tb.dst.Process("job")
		tb.k.Go("wait", func(p *sim.Proc) { npr.WaitDone(p) })
		tb.k.Run()
		return tb.link.Bytes()
	}
	iou := bytesFor(PureIOU)
	rs := bytesFor(ResidentSet)
	cp := bytesFor(PureCopy)
	if !(iou < rs && rs < cp) {
		t.Errorf("traffic ordering wrong: IOU=%d RS=%d Copy=%d", iou, rs, cp)
	}
}

func TestRIMASTransferTimes(t *testing.T) {
	// IOU transfer is near-constant; copy grows with RealMem.
	timeFor := func(strat Strategy, pages int) time.Duration {
		tb := newTestbed(t)
		pr := tb.makeProc(t, "job", pages, 8, 0)
		tb.src.Start(pr)
		rep := tb.migrate(t, "job", Options{Strategy: strat, HoldAtDest: true})
		return rep.RIMASTransfer
	}
	iouSmall := timeFor(PureIOU, 32)
	iouBig := timeFor(PureIOU, 512)
	copySmall := timeFor(PureCopy, 32)
	copyBig := timeFor(PureCopy, 512)
	if iouBig > 3*iouSmall {
		t.Errorf("IOU transfer not flat: %v vs %v", iouSmall, iouBig)
	}
	if copyBig < 8*copySmall {
		t.Errorf("copy transfer not growing: %v vs %v", copySmall, copyBig)
	}
	if copyBig < 20*iouBig {
		t.Errorf("copy (%v) not dwarfing IOU (%v) on big process", copyBig, iouBig)
	}
}

func TestCoreTransferAboutOneSecond(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 32, 8, 0)
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	if rep.CoreTransfer < 500*time.Millisecond || rep.CoreTransfer > 2*time.Second {
		t.Errorf("CoreTransfer = %v, want ≈1s", rep.CoreTransfer)
	}
}

func TestPortRightsSurviveMigration(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 8, 2, 0)
	portID := pr.Ports[0].ID
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, _ := tb.dst.Process("job")
	if len(npr.Ports) != 2 || npr.Ports[0].ID != portID {
		t.Fatalf("rights not preserved: %+v", npr.Ports)
	}
	// The port is live on the destination: a local message reaches it.
	got := false
	tb.k.Go("rx", func(p *sim.Proc) {
		tb.dst.IPC.Receive(p, npr.Ports[0])
		got = true
	})
	tb.k.Go("tx", func(p *sim.Proc) {
		if err := tb.dst.IPC.Send(p, &ipc.Message{To: portID, BodyBytes: 8}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	tb.k.Run()
	if !got {
		t.Error("message to migrated port not delivered")
	}
}

func TestPrefetchPropagates(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 32, 4, 12)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, Prefetch: 3})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("wait", func(p *sim.Proc) { npr.WaitDone(p) })
	tb.k.Run()
	if got := tb.dst.Pager.Prefetch(); got != 3 {
		t.Errorf("dest prefetch = %d", got)
	}
	st := tb.dst.Pager.Stats()
	if st.PrefetchedPages == 0 {
		t.Error("no pages prefetched")
	}
	// Sequential touches: far fewer faults than touches.
	if st.ImagFaults >= 12 {
		t.Errorf("ImagFaults = %d with prefetch 3, want < 12", st.ImagFaults)
	}
}

func TestSegmentDeathReleasesSourceCache(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 16, 4, 2)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("cleanup", func(p *sim.Proc) {
		npr.WaitDone(p)
		npr.AS.Clear() // last references die → death messages flow home
	})
	tb.k.Run()
	if segs := tb.src.Net.Store().Segments(); segs != 0 {
		t.Errorf("source cache still backs %d segments after death", segs)
	}
}

func TestResidualDependencyAccounting(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 40, 4, 10)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU})
	npr, _ := tb.dst.Process("job")
	tb.k.Go("wait", func(p *sim.Proc) { npr.WaitDone(p) })
	tb.k.Run()
	// 40 real pages, 10 fetched: 30 still owed by the source.
	if rem := tb.src.Net.Store().TotalRemaining(); rem != 30 {
		t.Errorf("TotalRemaining = %d, want 30", rem)
	}
}

func TestPreexistingImaginaryRegionForwards(t *testing.T) {
	// A process that already had an imaginary region (backed by the
	// source NetMsgServer cache, as after a prior lazy transfer) keeps
	// working after migration: faults flow to the original backer.
	tb := newTestbed(t)
	pr, err := tb.src.NewProcess("job", 0)
	if err != nil {
		t.Fatal(err)
	}
	store := tb.src.Net.Store()
	segID := uint64(1<<40 + 7)
	sseg := store.AddSegment(segID, 8*512, 512)
	for i := uint64(0); i < 8; i++ {
		sseg.Put(i, pattern(100+i))
	}
	iseg := vm.NewImaginarySegment("owed", 8*512, 512, uint64(tb.src.Net.BackingPort()))
	iseg.ID = segID
	if _, err := pr.AS.MapSegment(0, 8*512, iseg, 0, "owed"); err != nil {
		t.Fatal(err)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.MigratePoint{},
		trace.Touch{Addr: 3 * 512},
	}}
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU})
	npr, _ := tb.dst.Process("job")
	var execErr error
	tb.k.Go("wait", func(p *sim.Proc) { execErr = npr.WaitDone(p) })
	tb.k.Run()
	if execErr != nil {
		t.Fatalf("remote exec: %v", execErr)
	}
	// Verify the fetched content.
	tb.k.Go("verify", func(p *sim.Proc) {
		got, err := tb.dst.Pager.Read(p, npr.AS, 3*512, 16)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		want := pattern(103)
		for j := 0; j < 16; j++ {
			if got[j] != want[j] {
				t.Errorf("byte %d: %d != %d", j, got[j], want[j])
				return
			}
		}
	})
	tb.k.Run()
}

func TestMigrateUnknownProcess(t *testing.T) {
	tb := newTestbed(t)
	var err error
	tb.k.Go("driver", func(p *sim.Proc) {
		_, err = tb.srcM.MigrateTo(p, "ghost", tb.dstM.Port.ID, Options{})
	})
	tb.k.Run()
	if err == nil {
		t.Error("migrating a nonexistent process succeeded")
	}
}

func TestExciseTimingsBreakdown(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 64, 16, 0)
	tb.src.Start(pr)
	rep := tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	e := rep.Excise
	if e.AMap <= 0 || e.RIMAS <= 0 {
		t.Errorf("timings not positive: %+v", e)
	}
	if e.Overall < e.AMap+e.RIMAS {
		t.Errorf("Overall %v < AMap+RIMAS %v", e.Overall, e.AMap+e.RIMAS)
	}
}

func TestHoldAtDest(t *testing.T) {
	tb := newTestbed(t)
	pr := tb.makeProc(t, "job", 8, 2, 4)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, _ := tb.dst.Process("job")
	if npr.Done.Opened() {
		t.Error("held process ran")
	}
	// It can be started later.
	tb.dst.Start(npr)
	tb.k.Run()
	if npr.Status != machine.Finished {
		t.Errorf("status = %v after manual start", npr.Status)
	}
}
