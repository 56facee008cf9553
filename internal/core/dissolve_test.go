package core

import (
	"testing"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/netlink"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
)

// runDissolve migrates a process large enough to need several flush
// chunks, dissolves its IOUs under the given machine config, and
// reports the page count, the virtual time the dissolve took, and the
// testbed for further checks.
func runDissolve(t *testing.T, mcfg machine.Config) (int, time.Duration, *testbed, *machine.Process) {
	t.Helper()
	tb := newFaultTestbed(t, netlink.Config{}, mcfg)
	pr := tb.makeProc(t, "job", 600, 4, 0)
	tb.src.Start(pr)
	tb.migrate(t, "job", Options{Strategy: PureIOU, HoldAtDest: true})
	npr, ok := tb.dst.Process("job")
	if !ok {
		t.Fatal("process missing on destination")
	}
	var fetched int
	var err error
	var begin, end time.Duration
	tb.k.Go("driver", func(p *sim.Proc) {
		begin = p.Now()
		fetched, err = DissolveIOUs(p, tb.dst, npr)
		end = p.Now()
	})
	tb.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fetched, end - begin, tb, npr
}

// TestDissolveWindowed runs IOU dissolution with Outstanding=4 flush
// chunks in flight and checks it against the serial flush: same pages
// fetched, source fully released, data intact, and strictly less
// virtual time — the windowed chunks overlap their request/turnaround
// gaps on the wire.
func TestDissolveWindowed(t *testing.T) {
	serialN, serialT, _, _ := runDissolve(t, machine.Config{})
	winN, winT, tb, npr := runDissolve(t, machine.Config{
		Pager: pager.Config{Outstanding: 4},
	})
	if serialN != winN {
		t.Errorf("windowed dissolve fetched %d pages, serial fetched %d", winN, serialN)
	}
	if rem := tb.src.Net.Store().TotalRemaining(); rem != 0 {
		t.Errorf("source still owes %d pages after windowed dissolve", rem)
	}
	if winT >= serialT {
		t.Errorf("windowed dissolve took %v, want less than serial %v", winT, serialT)
	}
	// Data integrity: a flushed page far from the demand set must carry
	// its original pattern.
	tb.k.Go("check", func(p *sim.Proc) {
		got, err := tb.dst.Pager.Read(p, npr.AS, 500*512, 512)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		want := pattern(500)
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("flushed page corrupt at byte %d", j)
				return
			}
		}
	})
	tb.k.Run()
}
