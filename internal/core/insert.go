package core

import (
	"fmt"
	"time"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// InsertTimings breaks down InsertProcess cost.
type InsertTimings struct {
	Overall      time.Duration
	ArrivedPages int
	// ElidedPages counts pages the manifest exchange kept off the wire:
	// rebuilt here from the retained recipe (zero pages, local content-
	// index hits, intra-message duplicates, ledger-retained content)
	// instead of arriving.
	ElidedPages int
	// ResumedPages counts the elided pages rebuilt from the delivery
	// ledger — content that crossed the wire during an earlier failed
	// attempt of this same migration.
	ResumedPages int
	// RepairedPages counts installed pages whose integrity checksum
	// failed and had to be re-fetched from the source by hash.
	RepairedPages int
}

// InsertProcess recreates a process on machine m from its two context
// messages (§3.1). The messages are self-contained: the AMap guides
// address-space reconstruction, RIMAS data attachments provide page
// content, and IOU attachments become stand-in imaginary segments whose
// faults flow back to the backer. The reconstituted process is returned
// ready for machine.Start.
func InsertProcess(p *sim.Proc, m *machine.Machine, coreMsg, rimasMsg *ipc.Message, tun Tuning) (*machine.Process, InsertTimings, error) {
	return insertProcess(p, m, coreMsg, rimasMsg, nil, nil, tun)
}

// insertProcess is the full insertion path: InsertProcess plus the
// pre-copy stage — page contents for PreCopied handoffs, keyed by VA,
// gathered by earlier OpPreCopy rounds — and the manifest recipe, which
// rebuilds pages the source elided and seeds fault-time hash hints for
// pages riding IOUs.
func insertProcess(p *sim.Proc, m *machine.Machine, coreMsg, rimasMsg *ipc.Message, staged map[vm.Addr][]byte, rcp *dedupRecipe, tun Tuning) (*machine.Process, InsertTimings, error) {
	start := p.Now()
	var t InsertTimings
	cb, ok := coreMsg.Body.(*CoreBody)
	if !ok {
		return nil, t, fmt.Errorf("core: insert on %s: bad Core body %T", m.Name, coreMsg.Body)
	}
	rb, ok := rimasMsg.Body.(*RIMASBody)
	if !ok || rb.ProcName != cb.ProcName {
		return nil, t, fmt.Errorf("core: insert on %s: RIMAS/Core mismatch", m.Name)
	}
	if _, exists := m.Process(cb.ProcName); exists {
		return nil, t, fmt.Errorf("core: insert on %s: process %q already exists", m.Name, cb.ProcName)
	}

	as, err := vm.NewAddressSpace(vm.Config{PageSize: m.PageSize(), Pool: m.Pool})
	if err != nil {
		return nil, t, err
	}
	ps := uint64(m.PageSize())

	pr := &machine.Process{
		Name:             cb.ProcName,
		AS:               as,
		MicrostateBytes:  cb.MicrostateBytes,
		KernelStackBytes: cb.KernelStackBytes,
		PCBBytes:         cb.PCBBytes,
		Program:          cb.Program,
		PC:               cb.PC,
		AtMigrate:        sim.NewGate(m.K),
		Done:             sim.NewGate(m.K),
	}

	// Unfold the collapsed area: the run table says which pages belong
	// at which addresses; pages are consumed sequentially from the
	// resident and lazy collapsed attachments. Each attachment becomes
	// exactly one segment — a real one if the data physically arrived,
	// or a stand-in imaginary segment whose faults flow to the backer —
	// and runs map slices of it. Pre-existing imaginary attachments
	// (with their own VA) become stand-ins of their original objects.
	var lazySeg, resSeg *vm.Segment
	arrived := 0
	compPages := 0
	verified := 0
	// built tracks each data attachment's segment by its ordinal in the
	// RIMAS attachment list, so twin recipes can copy from the shipped
	// original wherever it landed.
	built := make(map[int]*vm.Segment)
	mkSegment := func(ai int, a *ipc.MemAttachment, label string) (*vm.Segment, error) {
		switch a.Kind {
		case ipc.AttachData:
			seg := vm.NewSegment(fmt.Sprintf("%s.%s", cb.ProcName, label), a.Size, int(ps))
			attachPool(m, seg)
			built[ai] = seg
			sumIdx := 0
			for _, run := range a.Runs {
				for j := 0; j < run.Count; j++ {
					idx := run.Index + uint64(j)
					// The page borrows the image the message carried, be it
					// the wire's or, in a rollback, the context's own.
					pg := seg.Receive(idx, run.Page(j, int(ps)))
					// Arrived data exists nowhere on the local disk yet:
					// an eviction must write it out.
					pg.State.Dirty = true
					m.Pager.Install(seg, idx)
					arrived++
					// End-to-end integrity: re-hash the installed page
					// against the checksum the source stamped. A mismatch
					// means the wire damaged this page; re-fetch just it by
					// hash instead of abandoning the whole attempt.
					if sumIdx < len(a.Sums) {
						verified++
						if got, _ := vm.HashPage(pg.Data, int(ps)); got != a.Sums[sumIdx] {
							if !m.Pager.RepairPage(p, seg, idx, a.Sums[sumIdx]) {
								return nil, fmt.Errorf("core: insert %q: page %d of %s corrupt and unrepairable",
									cb.ProcName, idx, label)
							}
							t.RepairedPages++
						}
					}
					sumIdx++
				}
			}
			if a.CompBytes > 0 {
				compPages += a.PageCount()
			}
			if acts := recipeActsFor(rcp, ai); acts != nil {
				n, res, err := applyRecipe(m, seg, acts, built)
				if err != nil {
					return nil, fmt.Errorf("core: insert %q: %w", cb.ProcName, err)
				}
				t.ElidedPages += n
				t.ResumedPages += res
			}
			return seg, nil
		case ipc.AttachIOU:
			// Keep the backer's identity so read requests name the
			// object it knows.
			seg := vm.NewImaginarySegment(fmt.Sprintf("%s.%s", cb.ProcName, label), a.SegSize, int(ps), uint64(a.Backing), a.SegID)
			attachPool(m, seg)
			registerDeathNotice(m, seg)
			// An absorbed attachment's manifest hashes become fault-time
			// hints: a later fault on these pages first tries the local
			// content index, then the nearest holder, before the backer.
			if acts := recipeActsFor(rcp, ai); acts != nil {
				hashes := make([]uint64, len(acts))
				for i, act := range acts {
					hashes[i] = act.hash
				}
				m.Pager.RegisterHints(seg.ID, a.SegOff/uint64(ps), hashes)
			}
			return seg, nil
		}
		return nil, fmt.Errorf("core: insert %q: unknown attachment kind %d", cb.ProcName, int(a.Kind))
	}
	var imagAtts []*ipc.MemAttachment
	for ai, a := range rimasMsg.Mem {
		switch {
		case a.Collapsed && a.Resident:
			seg, err := mkSegment(ai, a, "collapsed-rs")
			if err != nil {
				return nil, t, err
			}
			resSeg = seg
		case a.Collapsed:
			seg, err := mkSegment(ai, a, "collapsed")
			if err != nil {
				return nil, t, err
			}
			lazySeg = seg
		default:
			imagAtts = append(imagAtts, a)
		}
	}
	// With no explicit run table (pure-IOU / pure-copy / pre-copied),
	// the collapsed area unfolds in AMap order: every RealMem entry is
	// one lazy run.
	runTable := rb.Runs
	if len(runTable) == 0 {
		for _, e := range cb.AMap.Entries {
			if e.Access != vm.RealMem {
				continue
			}
			runTable = append(runTable, CollapsedRun{VA: e.Start, Pages: uint32(e.Size() / ps)})
		}
	}
	// A pre-copied handoff fills the collapsed area from the stage the
	// earlier rounds built — nothing rode in the RIMAS message itself.
	if rb.PreCopied {
		var total uint64
		for _, run := range runTable {
			total += uint64(run.Pages) * ps
		}
		seg := vm.NewSegment(fmt.Sprintf("%s.precopied", cb.ProcName), total, int(ps))
		attachPool(m, seg)
		var off uint64
		for _, run := range runTable {
			for i := uint64(0); i < uint64(run.Pages); i++ {
				data, ok := staged[run.VA+vm.Addr(i*ps)]
				if !ok {
					return nil, t, fmt.Errorf("core: insert %q: page %#x missing from pre-copy stage",
						cb.ProcName, run.VA+vm.Addr(i*ps))
				}
				pg := seg.Materialize(off/ps, data)
				pg.State.Dirty = true
				m.Pager.Install(seg, off/ps)
				arrived++
				off += ps
			}
		}
		lazySeg = seg
	}
	// Map the address space in one pass in address order — zero-filled
	// regions reborn from the AMap alone, collapsed runs, and imaginary
	// attachments at their own VAs — so every MapSegment appends to the
	// region list instead of shifting it. Each source is already sorted
	// by address; the pass merges them.
	var resOff, lazyOff uint64
	zeros := cb.AMap.Entries
unfold:
	for ri, ii := 0, 0; ; {
		for len(zeros) > 0 && zeros[0].Access != vm.RealZeroMem {
			zeros = zeros[1:]
		}
		zeroFirst := len(zeros) > 0 &&
			(ri == len(runTable) || zeros[0].Start < runTable[ri].VA) &&
			(ii == len(imagAtts) || zeros[0].Start < imagAtts[ii].VA)
		runFirst := ri < len(runTable) && (ii == len(imagAtts) || runTable[ri].VA < imagAtts[ii].VA)
		var err error
		switch {
		case zeroFirst:
			_, err = as.Validate(zeros[0].Start, zeros[0].Size(), "zero")
			zeros = zeros[1:]
		case runFirst:
			run := runTable[ri]
			ri++
			seg, off := lazySeg, &lazyOff
			if run.Resident {
				seg, off = resSeg, &resOff
			}
			if seg == nil {
				return nil, t, fmt.Errorf("core: insert %q: run table references missing attachment", cb.ProcName)
			}
			size := uint64(run.Pages) * ps
			_, err = as.MapSegment(run.VA, size, seg, *off, seg.Name)
			*off += size
		case ii < len(imagAtts):
			a := imagAtts[ii]
			ii++
			seg := vm.NewImaginarySegment(fmt.Sprintf("%s.owed@%#x", cb.ProcName, a.VA), a.SegSize, int(ps), uint64(a.Backing), a.SegID)
			attachPool(m, seg)
			if _, err = as.MapSegment(a.VA, a.Size, seg, a.SegOff, seg.Name); err == nil {
				registerDeathNotice(m, seg)
			}
		default:
			break unfold
		}
		if err != nil {
			return nil, t, fmt.Errorf("core: insert %q: %w", cb.ProcName, err)
		}
	}
	t.ArrivedPages = arrived

	// Port rights rejoin the name space with their identities intact,
	// and their undelivered mail is re-queued in order.
	for _, r := range cb.Rights {
		port := m.IPC.AdoptPort(r.ID, r.Name)
		for _, pm := range r.Pending {
			port.Enqueue(pm)
		}
		pr.Ports = append(pr.Ports, port)
	}

	// Rights/PCB processing (CoreRightsCPU) is charged by the manager
	// when the Core message arrives — it belongs to the transfer phase,
	// which is why Core transmission takes ≈1 s in all cases (§4.3.2).
	// Elided pages cost the same per-page install work as arrived ones
	// (the copy is local instead of from the wire); compressed arrivals
	// additionally pay the modeled decompression, and checksummed ones
	// the verification re-hash.
	m.CPU.UseHigh(p, tun.InsertBase+
		time.Duration(len(cb.Rights))*tun.PerPortRight+
		time.Duration(len(cb.AMap.Entries)+len(rimasMsg.Mem))*tun.InsertPerRun+
		time.Duration(t.ArrivedPages+t.ElidedPages)*tun.InsertPerArrivedPage+
		time.Duration(compPages)*vm.DecompressPerPageCPU+
		time.Duration(verified)*vm.HashPerPageCPU)

	if err := m.Adopt(pr); err != nil {
		return nil, t, err
	}
	m.Pager.SetPrefetch(cb.Prefetch)
	t.Overall = p.Now() - start
	return pr, t, nil
}

// recipeActsFor returns the recipe actions for attachment ordinal ai,
// or nil when no recipe covers it.
func recipeActsFor(rcp *dedupRecipe, ai int) []recipeAct {
	if rcp == nil || ai >= len(rcp.atts) || len(rcp.atts[ai].acts) == 0 {
		return nil
	}
	return rcp.atts[ai].acts
}

// applyRecipe rebuilds a data attachment's elided pages — zeros from
// nothing, local hits from bytes captured at classification, ledger
// retentions from an earlier attempt's delivery, twins from the
// shipped original — and registers every page's hash in the machine's
// content index so later faults and migrations can be served locally.
// Shipped pages must already be materialized by the run loop. It
// returns how many pages were rebuilt, and how many of those came from
// the delivery ledger.
func applyRecipe(m *machine.Machine, seg *vm.Segment, acts []recipeAct, built map[int]*vm.Segment) (int, int, error) {
	rebuilt, resumed := 0, 0
	install := func(idx uint64, pg *vm.Page, hash uint64) {
		pg.State.Dirty = true
		m.Pager.Install(seg, idx)
		if m.Index != nil && hash != vm.ZeroHash {
			m.Index.Put(hash, pg.Data)
		}
		rebuilt++
	}
	for i, act := range acts {
		idx := uint64(i)
		switch act.kind {
		case actShip, actHint:
			// actHint on a data attachment means the transport shipped an
			// attachment the source predicted it would absorb — nothing to
			// rebuild, but the hashes still seed the index.
			if pg := seg.Page(idx); pg != nil {
				if m.Index != nil && act.hash != vm.ZeroHash {
					m.Index.Put(act.hash, pg.Data)
				}
			} else if act.kind == actShip {
				return rebuilt, resumed, fmt.Errorf("manifest page %d missing from shipped runs", i)
			}
		case actZero:
			install(idx, seg.MaterializeZero(idx), vm.ZeroHash)
		case actLocal:
			// The private copy made at classification.
			install(idx, seg.Receive(idx, act.data), act.hash)
		case actResume:
			// The ledger's copy, which nothing writes.
			install(idx, seg.Receive(idx, act.data), act.hash)
			resumed++
		case actTwin:
			twinSeg := built[act.twinAtt]
			if twinSeg == nil {
				return rebuilt, resumed, fmt.Errorf("twin attachment %d not built", act.twinAtt)
			}
			src := twinSeg.Page(uint64(act.twinIdx))
			if src == nil {
				return rebuilt, resumed, fmt.Errorf("twin page %d/%d not materialized", act.twinAtt, act.twinIdx)
			}
			// The shipped original, still the image its message carried.
			install(idx, seg.Receive(idx, src.Data), act.hash)
		}
	}
	return rebuilt, resumed, nil
}

// attachPool points a freshly inserted segment at the machine's frame
// pool so its materializations recycle frames freed by past excisions.
func attachPool(m *machine.Machine, seg *vm.Segment) {
	if m.Pool != nil {
		seg.SetPool(m.Pool)
	}
}

// registerDeathNotice wires the §2.2 Imaginary Segment Death message:
// when the last mapping of the stand-in dies, the backer is told to
// discard its owed pages.
func registerDeathNotice(m *machine.Machine, seg *vm.Segment) {
	seg.OnDeath(func() {
		m.K.Go(m.Name+".segdeath", func(p *sim.Proc) {
			// Best effort, as in real life: a dead backer just misses
			// the notice.
			_ = m.IPC.Send(p, &ipc.Message{
				Op:        imag.OpSegmentDeath,
				To:        ipc.PortID(seg.BackingPort),
				Body:      &imag.SegmentDeath{SegID: seg.ID},
				BodyBytes: imag.SegmentDeathBytes,
			})
		})
	})
}
