package workload_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// crossedImages records every page image a message carried off a
// machine, with a copy of its bytes. Receivers borrow these images, so
// none of them may ever change.
type crossedImages struct {
	ps     int
	images []heldImage
}

// watch chains a recorder in front of each machine's network router,
// so every message that leaves for a peer is recorded as it is sent.
func (c *crossedImages) watch(ms ...*machine.Machine) {
	for _, m := range ms {
		var next ipc.Router
		next = m.IPC.SetRouter(func(msg *ipc.Message) bool {
			c.message(msg)
			return next(msg)
		})
	}
}

// message records the page images of m's data attachments and of a
// read reply body.
func (c *crossedImages) message(m *ipc.Message) {
	record := func(what string, runs []vm.PageRun) {
		for _, run := range runs {
			for i := 0; i < run.Count; i++ {
				if pg := run.Page(i, c.ps); len(pg) > 0 {
					c.images = append(c.images, heldImage{what, pg, bytes.Clone(pg)})
				}
			}
		}
	}
	for _, a := range m.Mem {
		record(fmt.Sprintf("an op %#x attachment image", m.Op), a.Runs)
	}
	if rp, ok := m.Body.(*imag.ReadReply); ok {
		record(fmt.Sprintf("an op %#x reply image", m.Op), rp.Runs)
	}
}

// check reports every recorded image that changed.
func (c *crossedImages) check(t *testing.T, after string) {
	t.Helper()
	for _, img := range c.images {
		if !bytes.Equal(img.data, img.was) {
			t.Errorf("%s changed %s", after, img.what)
			return
		}
	}
}

// crossedTotals counts, across trials, what the trials exercised.
type crossedTotals struct {
	sync.Mutex
	images, rollbacks, resumed, repaired, borrowed uint64
}

// crossedTrial migrates PM-End under strat, as ownershipTrial does, and
// records every image that crosses the wire in either direction: RIMAS
// pages (the dead process's frames and the fill rows they borrow),
// demand, stream, flush and hash-read replies. A rollback writes every
// page of the reinstated process at the source, and at the end every
// destination page is written. No recorded image may change, and
// neither may the image a destination page borrowed before its write:
// an arrival, a ledger resume, a manifest local hit, a twin or a
// repair. Index entries alias such images, so this also covers the
// entries the ownership guard spares as its own process's frames.
func crossedTrial(t *testing.T, strat core.Strategy, features, partition bool, tot *crossedTotals) {
	var cfg experiments.Config
	cfg.Machine.Pager.Outstanding = 2
	cfg.Machine.Pager.RetryTimeout = 10 * time.Second
	if features {
		cfg.Machine.Dedup = vm.DedupConfig{Enabled: true, Integrity: true, Resume: true}
	}
	tb := experiments.NewTestbed(cfg)
	defer tb.K.Close()
	crossed := &crossedImages{ps: tb.Src.PageSize()}
	crossed.watch(tb.Src, tb.Dst)
	if features && !partition {
		b, err := workload.Build(tb.Src, workload.Minprog)
		if err != nil {
			t.Fatal(err)
		}
		tb.Src.Start(b.Proc)
		if _, err := migrate(tb, workload.Minprog, core.PureCopy, true, nil); err != nil {
			t.Fatalf("Minprog: %v", err)
		}
	}
	b, err := workload.Build(tb.Src, workload.PMEnd)
	if err != nil {
		t.Fatal(err)
	}
	name := workload.PMEnd.String()
	tb.Src.Start(b.Proc)

	attempts := 0
	tb.SrcMgr.PhaseHook = func(p *sim.Proc, phase string) {
		if partition && attempts == 1 && phase == "xfer.rimas" {
			from := p.Now()
			if strat != core.PureIOU {
				from += 3 * time.Second
			}
			tb.ArmFaults(&faults.Plan{Seed: 1, CorruptProb: 0.05, Partitions: []faults.Window{
				{Start: faults.Duration(from), End: faults.Duration(from + 25*time.Second)},
			}})
		}
		if phase != "excise" {
			return
		}
		if attempts++; attempts == 1 {
			return
		}
		pr, ok := tb.Src.Process(name)
		if !ok {
			t.Errorf("attempt %d: %s not at the source after a rollback", attempts, name)
			return
		}
		writeEveryPage(t, pr, byte(attempts), true)
		crossed.check(t, fmt.Sprintf("writing the rolled-back process before attempt %d", attempts))
	}
	rep, err := migrate(tb, workload.PMEnd, strat, false, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if partition && attempts < 2 {
		t.Fatalf("the partition forced no retry (%d attempt)", attempts)
	}
	dst, ok := tb.Dst.Process(name)
	if !ok {
		t.Fatalf("%s not at the destination", name)
	}
	// Each page's image before the writes: a page that owned its frame
	// is written in place, and one that borrowed leaves the image behind.
	type image struct {
		pg *vm.Page
		heldImage
	}
	var images []image
	ps := uint64(tb.Dst.PageSize())
	for _, r := range dst.AS.Regions() {
		for idx := r.SegOff / ps; idx*ps < r.SegOff+r.Size(); idx++ {
			if pg := r.Seg.Page(idx); pg != nil && len(pg.Data) > 0 {
				what := fmt.Sprintf("the image page %d of %s borrowed", idx, r.Seg.Name)
				images = append(images, image{pg, heldImage{what, pg.Data, bytes.Clone(pg.Data)}})
			}
		}
	}
	writeEveryPage(t, dst, 0xff, false)
	churn(tb.Src, tb.Dst)
	crossed.check(t, "writing every destination page")
	borrowed := 0
	for _, img := range images {
		if &img.pg.Data[0] == &img.data[0] {
			continue // owned, and written in place
		}
		borrowed++
		if !bytes.Equal(img.data, img.was) {
			t.Errorf("writing every destination page changed %s", img.what)
		}
	}
	requireFillRowsIntact(t, "writes after every crossing")

	tot.Lock()
	defer tot.Unlock()
	tot.images += uint64(len(crossed.images))
	tot.rollbacks += uint64(attempts - 1)
	tot.resumed += uint64(rep.Insert.ResumedPages)
	tot.repaired += uint64(rep.Insert.RepairedPages)
	tot.borrowed += uint64(borrowed)
}

// TestWritesNeverReachCrossedImages runs crossedTrial under pure copy,
// pure IOU and resident set, with dedup, integrity and resume off and
// on, with and without a partition plan that forces rollbacks, resumes
// and repairs of pages corrupted in flight.
func TestWritesNeverReachCrossedImages(t *testing.T) {
	var tot crossedTotals
	t.Run("trials", func(t *testing.T) {
		for _, strat := range []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet} {
			for _, features := range []bool{false, true} {
				for _, partition := range []bool{false, true} {
					name := fmt.Sprintf("%v/features=%v/partition=%v", strat, features, partition)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						crossedTrial(t, strat, features, partition, &tot)
					})
				}
			}
		}
	})
	t.Logf("%d crossed images; %d rollbacks, %d resumed and %d repaired pages; %d borrowed images left behind by writes",
		tot.images, tot.rollbacks, tot.resumed, tot.repaired, tot.borrowed)
	for what, n := range map[string]uint64{
		"crossed image": tot.images, "rollback": tot.rollbacks, "resumed page": tot.resumed,
		"repaired page": tot.repaired, "borrowed image": tot.borrowed,
	} {
		if n == 0 && !t.Failed() {
			t.Errorf("no trial had a %s", what)
		}
	}
}
