package workload_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/faults"
	"accentmig/internal/imag"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// heldImage is a buffer something other than a page relies on — an IOU
// store image, a content-index entry, a ledger entry — with a copy of
// the bytes it held when captured.
type heldImage struct {
	what string
	data []byte
	was  []byte
}

// frames collects the frame of every page of pr's address space.
func frames(pr *machine.Process, into map[*byte]bool) {
	ps := uint64(pr.AS.PageSize())
	for _, r := range pr.AS.Regions() {
		for idx := r.SegOff / ps; idx*ps < r.SegOff+r.Size(); idx++ {
			if pg := r.Seg.Page(idx); pg != nil && len(pg.Data) > 0 {
				into[&pg.Data[0]] = true
			}
		}
	}
}

// writeEveryPage writes a marker numbering the page into every page of
// pr's address space through Segment.Write, which copies a shared or
// borrowed page first and writes an owned one in place. Then every
// page must still hold its own marker: two pages that share a frame
// would not. With restore set, each page then gets its old bytes back,
// so the content a retry ships is unchanged. It returns how many pages
// it wrote.
func writeEveryPage(t *testing.T, pr *machine.Process, tag byte, restore bool) int {
	t.Helper()
	type written struct {
		seg       *vm.Segment
		mark, was []byte
	}
	marks := make(map[*vm.Page]written)
	ps := uint64(pr.AS.PageSize())
	var n uint64
	for _, r := range pr.AS.Regions() {
		for idx := r.SegOff / ps; idx*ps < r.SegOff+r.Size(); idx++ {
			if pg := r.Seg.Page(idx); pg != nil && pg.Data != nil {
				n++
				mark := binary.BigEndian.AppendUint64([]byte{tag}, n)
				was := bytes.Clone(pg.Data[:len(mark)])
				r.Seg.Write(idx, 0, mark)
				marks[pg] = written{r.Seg, mark, was}
			}
		}
	}
	for pg, w := range marks {
		if !bytes.Equal(pg.Data[:len(w.mark)], w.mark) {
			t.Errorf("%s: page %d lost its marker to a page sharing its frame", pr.Name, pg.Index)
		}
		if restore {
			w.seg.Write(pg.Index, 0, w.was)
		}
	}
	return len(marks)
}

// churn draws every free frame of each machine's pool, and more, fills
// it with garbage and returns it: a frame that the pool still lists
// though something else keeps its bytes would show the garbage.
func churn(ms ...*machine.Machine) {
	for _, m := range ms {
		n := m.Pool.FreeFrames() + 64
		seg := vm.NewSegment("churn", uint64(n*m.PageSize()), m.PageSize())
		seg.SetPool(m.Pool)
		junk := bytes.Repeat([]byte{0xee}, m.PageSize())
		for i := 0; i < n; i++ {
			seg.Materialize(uint64(i), junk)
		}
		seg.ReleaseFrames()
	}
}

// installPaths counts, across trials, how often each install path ran,
// so the test can tell that every path was exercised.
type installPaths struct {
	sync.Mutex
	arrived, demand, stream, holder, localHit, resumed, rollbacks uint64
}

// migrate moves kind from tb.Src to tb.Dst under strat. Unless held,
// it runs capture once the process has arrived and then the process to
// completion there.
func migrate(tb *experiments.Testbed, kind workload.Kind, strat core.Strategy, hold bool, capture func()) (*core.Report, error) {
	name := kind.String()
	var rep *core.Report
	var err error
	tb.K.Go("driver."+name, func(p *sim.Proc) {
		rep, err = tb.SrcMgr.MigrateTo(p, name, tb.DstMgr.Port.ID, core.Options{
			Strategy: strat, Prefetch: 2, HoldAtDest: hold, MaxRetries: 8,
		})
		if err != nil || hold {
			return
		}
		capture()
		if pr, ok := tb.Dst.Process(name); ok {
			err = pr.WaitDone(p)
		}
	})
	tb.K.Run()
	return rep, err
}

// ownershipTrial migrates PM-End under strat on a fresh testbed and runs
// it to completion at the destination, then writes every page there. A
// rollback along the way writes every page of the reinstated process at
// the source before the retry excises it again. With the dedup features
// on, Minprog migrates first, so PM-End finds some of its page contents
// already at the destination (both kinds borrow the same fill rows).
// The writes must reach no buffer adoption must leave alone: an image
// the source's IOU store holds, a page the destination ledger retains,
// a content-index entry that no page of PM-End owns. No two pages may
// share a frame either.
func ownershipTrial(t *testing.T, strat core.Strategy, features, partition bool, paths *installPaths) {
	var cfg experiments.Config
	cfg.Machine.Pager.Outstanding = 2 // split fault replies: demand and stream
	cfg.Machine.Pager.RetryTimeout = 10 * time.Second
	if features {
		cfg.Machine.Dedup = vm.DedupConfig{Enabled: true, Integrity: true, Resume: true}
	}
	tb := experiments.NewTestbed(cfg)
	defer tb.K.Close()
	if features && !partition {
		// Held at the destination, Minprog keeps its pages, and the
		// index entries naming them, live for the whole trial.
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
	ps := tb.Src.PageSize()
	// The content index and the ledger are keyed by page name; every
	// name the process starts with reaches every entry they can hold.
	var names []uint64
	for _, r := range b.Proc.AS.Regions() {
		for idx := r.SegOff / uint64(ps); idx*uint64(ps) < r.SegOff+r.Size(); idx++ {
			if pg := r.Seg.Page(idx); pg != nil {
				if h, zero := vm.HashPage(pg.Data, ps); !zero {
					names = append(names, h)
				}
			}
		}
	}
	tb.Src.Start(b.Proc)

	// held lists buffers that never change once captured: the source's
	// IOU store images and the destination ledger's retained pages.
	var held []heldImage
	keep := func(list *[]heldImage, what string, data []byte) {
		*list = append(*list, heldImage{what, data, bytes.Clone(data)})
	}
	capture := func() {
		tb.Src.Net.Store().Each(func(g *imag.StoreSegment) {
			for idx := uint64(0); idx*uint64(g.PageSize) < g.Size; idx++ {
				if data, ok := g.Get(idx); ok {
					keep(&held, fmt.Sprintf("store page %d/%d", g.ID, idx), data)
				}
			}
		})
		for _, h := range names {
			if data := tb.Dst.Ledger.Lookup(name, h, ps); data != nil {
				keep(&held, fmt.Sprintf("ledger page %#x", h), data)
			}
		}
		churn(tb.Src, tb.Dst)
	}
	// writeAll writes every page of pr. Index entries alias live frames
	// and recycled ones, so they are checked across the writes alone:
	// entries aliasing a frame of pr follow their page by design, and no
	// other entry may change.
	var lookups uint64 // destination index hits the test itself made
	writeAll := func(pr *machine.Process, tag byte, restore bool) int {
		own := make(map[*byte]bool)
		frames(pr, own)
		var entries []heldImage
		before := tb.Dst.Index.Stats().Hits
		for _, h := range names {
			for _, m := range []*machine.Machine{tb.Src, tb.Dst} {
				if data, ok := m.Index.Lookup(h); ok && !own[&data[0]] {
					keep(&entries, fmt.Sprintf("%s index entry %#x", m.Name, h), data)
				}
			}
		}
		lookups += tb.Dst.Index.Stats().Hits - before
		n := writeEveryPage(t, pr, tag, restore)
		for _, e := range entries {
			if !bytes.Equal(e.data, e.was) {
				t.Errorf("writing %s's pages at %v reached %s", pr.Name, tb.K.Now(), e.what)
			}
		}
		return n
	}

	attempts := 0
	tb.SrcMgr.PhaseHook = func(p *sim.Proc, phase string) {
		if partition && attempts == 1 && phase == "xfer.rimas" {
			// Partition the link for longer than the transport's
			// dead-peer horizon: from the start of the first RIMAS
			// transfer under pure IOU, whose RIMAS is small, and from
			// partway through it otherwise, so that the ledger retains
			// what crossed. Delivered pages may arrive corrupt.
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
		// A retry: the failed attempt rolled the process back onto the
		// source, where its pages are written (and then restored, so the
		// retry ships what the failed attempt did) before it leaves again.
		pr, ok := tb.Src.Process(name)
		if !ok {
			t.Errorf("attempt %d: %s not at the source after a rollback", attempts, name)
			return
		}
		capture()
		writeAll(pr, byte(attempts), true)
	}
	// Index hits up to arrival are the manifest's local hits, whose
	// copies insertion adopts.
	startHits, localHits := tb.Dst.Index.Stats().Hits, uint64(0)
	rep, err := migrate(tb, workload.PMEnd, strat, false, func() {
		localHits = tb.Dst.Index.Stats().Hits - startHits - lookups
		capture()
	})
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
	capture()
	if n := writeAll(dst, 0xff, false); n == 0 {
		t.Fatal("no page written at the destination")
	}
	churn(tb.Src, tb.Dst)
	for _, hi := range held {
		if !bytes.Equal(hi.data, hi.was) {
			t.Errorf("a page write reached %s", hi.what)
		}
	}

	st := tb.Dst.Pager.Stats()
	paths.Lock()
	defer paths.Unlock()
	paths.arrived += uint64(rep.Insert.ArrivedPages)
	paths.demand += st.ImagFaults
	paths.stream += st.StreamedPages
	paths.holder += st.HolderServes
	paths.localHit += localHits
	paths.resumed += uint64(rep.Insert.ResumedPages)
	paths.rollbacks += uint64(attempts - 1)
}

// TestWritesNeverReachSharedImages drives migrations through every
// path that installs page images — arrived RIMAS pages, demand, stream
// and hash-read fault replies, manifest local hits and ledger resumes,
// a rollback's reinstall — under pure copy, pure IOU and resident set,
// with dedup, integrity and resume off and on, with and without a
// partition plan that forces rollbacks and retries. Writing every page
// afterwards must reach no buffer that anything else keeps, and no
// workload fill row. The trials run concurrently, so under -race they
// also check that the shared template is only read.
func TestWritesNeverReachSharedImages(t *testing.T) {
	var paths installPaths
	t.Run("trials", func(t *testing.T) {
		for _, strat := range []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet} {
			for _, features := range []bool{false, true} {
				for _, partition := range []bool{false, true} {
					name := fmt.Sprintf("%v/features=%v/partition=%v", strat, features, partition)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						ownershipTrial(t, strat, features, partition, &paths)
					})
				}
			}
		}
	})
	t.Logf("pages installed by path: arrived %d, demand faults %d, streamed %d, holder reads %d, local hits %d, resumed %d; %d rollbacks",
		paths.arrived, paths.demand, paths.stream, paths.holder, paths.localHit, paths.resumed, paths.rollbacks)
	for what, n := range map[string]uint64{
		"arrived": paths.arrived, "demand": paths.demand, "stream": paths.stream, "holder": paths.holder,
		"local-hit": paths.localHit, "resumed": paths.resumed, "rollback": paths.rollbacks,
	} {
		if n == 0 && !t.Failed() {
			t.Errorf("no trial took the %s install path", what)
		}
	}
	requireFillRowsIntact(t, "page writes after every install path")
}
