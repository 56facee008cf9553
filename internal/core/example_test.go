package core_test

import (
	"fmt"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
)

// A complete copy-on-reference migration: two machines, one process,
// one lazy transfer, remote faults on demand.
func Example() {
	k := sim.New()
	src := machine.New(k, "src", machine.Config{})
	dst := machine.New(k, "dst", machine.Config{})
	machine.Connect(src, dst, netlink.Config{})
	srcMgr := core.NewManager(src, core.DefaultTuning())
	dstMgr := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstMgr.Port.ID, "dst")
	dst.Net.AddRoute(srcMgr.Port.ID, "src")

	pr, _ := src.NewProcess("job", 1)
	reg, _ := pr.AS.Validate(0, 64*512, "data")
	for i := uint64(0); i < 64; i++ {
		pg := reg.Seg.Materialize(i, []byte{byte(i)})
		pg.State.OnDisk = true
	}
	pr.Program = &trace.Program{Ops: []trace.Op{
		trace.MigratePoint{},
		trace.SeqScan{Bytes: 8 * 512, PerTouch: time.Millisecond},
	}}
	src.Start(pr)

	k.Go("driver", func(p *sim.Proc) {
		rep, err := srcMgr.MigrateTo(p, "job", dstMgr.Port.ID, core.Options{Strategy: core.PureIOU})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		npr, _ := dst.Process("job")
		npr.WaitDone(p)
		fmt.Printf("RIMAS transfer under %v: %v\n", 100*time.Millisecond, rep.RIMASTransfer < 100*time.Millisecond)
		fmt.Printf("remote faults: %d of 64 pages\n", dst.Pager.Stats().ImagFaults)
		fmt.Printf("pages still owed by src: %d\n", src.Net.Store().TotalRemaining())
	})
	k.Run()
	// Output:
	// RIMAS transfer under 100ms: true
	// remote faults: 8 of 64 pages
	// pages still owed by src: 56
}
