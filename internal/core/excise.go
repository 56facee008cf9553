package core

import (
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// IPC operation codes for the migration protocol.
const (
	// OpCore carries the Core context message (Body: *CoreBody).
	OpCore = 0x2001
	// OpRIMAS carries the collapsed address space (Body: *RIMASBody).
	OpRIMAS = 0x2002
	// OpMigrateAck confirms insertion (Body: *AckBody).
	OpMigrateAck = 0x2003
	// OpCoreAck confirms Core-context arrival (Body: *AckBody).
	OpCoreAck = 0x2004
)

// PortRight names one transferred port, together with the mail still
// queued on it — relocation must not lose undelivered messages.
type PortRight struct {
	ID      ipc.PortID
	Name    string
	Pending []*ipc.Message
}

// CoreBody is the first context message: everything but the address
// space contents — microstate, kernel stack, PCB, port rights, and the
// AMap describing the whole address space.
type CoreBody struct {
	ProcName         string
	AMap             *vm.AMap
	Rights           []PortRight
	MicrostateBytes  int
	KernelStackBytes int
	PCBBytes         int
	PC               int
	// Program is the process's reference program. It is immutable and
	// shared by every install of its workload, so it crosses by
	// reference (wire.Encoder.Ref), and BodyBytes counts none of it.
	Program  *trace.Program
	Prefetch int
	// Attempt numbers the migration try this context belongs to, so
	// acknowledgements delayed past a retransmission are recognized as
	// stale by the source.
	Attempt int
}

// CollapsedRun describes one RealMem run of the collapsed RIMAS area:
// Pages pages that belong at VA, drawn sequentially from the resident
// or the lazy collapsed attachment (§3.1: the address space is
// "collapsed into a contiguous area"; this compact table is what lets
// InsertProcess unfold it again).
type CollapsedRun struct {
	VA       vm.Addr
	Pages    uint32
	Resident bool
}

// collapsedRunWireBytes prices one run-table entry.
const collapsedRunWireBytes = 10

// RIMASBody tags the RIMAS message with its process and carries the
// collapsed-area run table; the memory itself travels as the message's
// attachments.
type RIMASBody struct {
	ProcName string
	// HoldAtDest leaves the reconstituted process stopped.
	HoldAtDest bool
	// PreCopied means the page contents were staged ahead of time by
	// OpPreCopy rounds; the destination fills runs from its stage.
	PreCopied bool
	// Runs is the collapsed-area reconstruction table in VA order.
	Runs []CollapsedRun
	// Attempt numbers the migration try (see CoreBody.Attempt).
	Attempt int
}

// Bytes prices the body for wire accounting.
func (rb *RIMASBody) Bytes() int { return 64 + collapsedRunWireBytes*len(rb.Runs) }

// MigrationProc names the migrating process. The transport's delivery
// ledger uses it to key page content retained from a transfer that
// died after some fragments were acknowledged.
func (rb *RIMASBody) MigrationProc() string { return rb.ProcName }

// AckBody reports insertion timestamps back to the source manager.
type AckBody struct {
	ProcName     string
	CoreArrived  time.Duration
	RIMASArrived time.Duration
	InsertDone   time.Duration
	Insert       InsertTimings
	Err          string
	// Attempt echoes the request's attempt number back to the source.
	Attempt int
}

// ExciseTimings breaks down ExciseProcess cost as Table 4-4 does.
type ExciseTimings struct {
	AMap    time.Duration
	RIMAS   time.Duration
	Overall time.Duration
}

// Context is an excised process, ready for shipment as two
// self-contained IPC messages.
type Context struct {
	Core    *ipc.Message
	RIMAS   *ipc.Message
	Timings ExciseTimings

	// RealPages and ResidentPages summarize what was collapsed, for
	// experiment reporting.
	RealPages     int
	ResidentPages int
}

// ExciseProcess removes the complete context of pr from machine m
// (§3.1). After it returns, the process has ceased to exist at the
// source: its frames are freed, its ports withdrawn (their rights
// travel in the Core message), and its name removed from the process
// table. The strategy shapes the RIMAS message's copy flags.
func ExciseProcess(p *sim.Proc, m *machine.Machine, pr *machine.Process, strat Strategy, prefetch int, tun Tuning) (*Context, error) {
	if pr.Host != m {
		return nil, fmt.Errorf("core: excise %q: not resident on %s", pr.Name, m.Name)
	}
	start := p.Now()

	// Phase 1: AMap construction. Cost grows with map complexity.
	amap := vm.BuildAMap(pr.AS)
	m.CPU.UseHigh(p, tun.AMapBase+
		time.Duration(amap.Stats.Runs)*tun.AMapPerEntry+
		time.Duration(amap.Stats.MaterializedPages)*tun.AMapPerRealPage)
	amapDone := p.Now()

	// Phase 2: collapse RealMem into one contiguous area (§3.1). Under
	// the resident-set strategy the area is split in two — the resident
	// pages (to be physically copied) and the rest (IOU-able) — and the
	// run table records how to unfold it. Pre-existing imaginary runs
	// keep their own IOU descriptors.
	ctx := &Context{}
	ps := pr.AS.PageSize()
	var runs []CollapsedRun
	// The page images bound for each collapsed attachment, one
	// page-size run each. The lazy half usually takes every page, and
	// under the resident-set strategy all but the resident few.
	var lazy, res []vm.PageRun
	if strat != PreCopied {
		lazy = make([]vm.PageRun, 0, amap.Stats.MaterializedPages)
	}
	var imagAtts []*ipc.MemAttachment
	var resident, real int
	for _, e := range amap.Entries {
		switch e.Access {
		case vm.RealMem:
			rs, nres, n := collapseRealRun(pr.AS, e, strat, &lazy, &res)
			runs = append(runs, rs...)
			resident += nres
			real += n
		case vm.ImagMem:
			att, err := collapseImagRun(pr.AS, e)
			if err != nil {
				return nil, err
			}
			imagAtts = append(imagAtts, att)
		}
		// RealZeroMem runs travel only in the AMap.
	}
	var attachments []*ipc.MemAttachment
	if len(res) > 0 {
		attachments = append(attachments, collapsedAttachment(res, ps, true))
	}
	if len(lazy) > 0 {
		attachments = append(attachments, collapsedAttachment(lazy, ps, false))
	}
	attachments = append(attachments, imagAtts...)
	m.CPU.UseHigh(p, tun.CollapseBase+
		time.Duration(resident)*tun.CollapsePerResidentPage+
		time.Duration(real)*tun.CollapsePerRealPage)
	collapseDone := p.Now()

	// The process ceases to exist here.
	segs := map[*vm.Segment]bool{}
	for _, r := range pr.AS.Regions() {
		segs[r.Seg] = true
	}
	for seg := range segs {
		m.Phys.RemoveSegment(seg)
		// The collapsed attachments refer to the dead process's frames
		// in place, so the frames leave the pool with the context. A
		// pre-copied context carries no page image, and its frames are
		// recycled.
		if strat == PreCopied {
			seg.ReleaseFrames()
		} else {
			seg.DisownFrames()
		}
	}
	rights := make([]PortRight, 0, len(pr.Ports))
	pendingBytes := 0
	for _, port := range pr.Ports {
		mail := port.Drain()
		for _, pm := range mail {
			pendingBytes += pm.WireBytes()
		}
		rights = append(rights, PortRight{ID: port.ID, Name: port.Name, Pending: mail})
		m.IPC.RemovePort(port)
	}
	m.Remove(pr.Name)
	pr.Status = machine.Excised
	pr.Host = nil
	if m.K.Tracing() {
		m.K.Emit(obs.Event{
			Kind:    obs.StateChange,
			Machine: m.Name,
			Proc:    pr.Name,
			Name:    machine.Excised.String(),
		})
	}

	coreBody := &CoreBody{
		ProcName:         pr.Name,
		AMap:             amap,
		Rights:           rights,
		MicrostateBytes:  pr.MicrostateBytes,
		KernelStackBytes: pr.KernelStackBytes,
		PCBBytes:         pr.PCBBytes,
		PC:               pr.PC,
		Program:          pr.Program,
		Prefetch:         prefetch,
	}
	ctx.Core = &ipc.Message{
		Op:        OpCore,
		Body:      coreBody,
		BodyBytes: pr.ContextBytes() + amap.WireBytes() + 16*len(rights) + pendingBytes,
	}
	// Only the resident-set strategy needs the residency-split run
	// table on the wire; the other strategies reconstruct the collapsed
	// area directly from the Core message's AMap, keeping the RIMAS
	// message tiny (the paper's near-constant ≈0.2 s IOU transfers).
	if strat != ResidentSet {
		runs = nil
	}
	rimasBody := &RIMASBody{ProcName: pr.Name, Runs: runs, PreCopied: strat == PreCopied}
	ctx.RIMAS = &ipc.Message{
		Op:        OpRIMAS,
		Body:      rimasBody,
		BodyBytes: rimasBody.Bytes(),
		Mem:       attachments,
		NoIOUs:    strat == PureCopy,
	}
	ctx.Timings = ExciseTimings{
		AMap:    amapDone - start,
		RIMAS:   collapseDone - amapDone,
		Overall: p.Now() - start,
	}
	ctx.RealPages = real
	ctx.ResidentPages = resident
	return ctx, nil
}

// collapseRealRun builds the collapsed-area run table for one RealMem
// accessibility run and gathers its page images, each as its own
// one-page run numbered on from the last. Under the resident-set
// strategy the run is split at residency boundaries, resident pages
// going to res (physically copied) and the rest to lazy; the other
// strategies keep the run whole in lazy (pure-copy forces physical
// transmission with the message-level NoIOUs bit instead).
func collapseRealRun(as *vm.AddressSpace, e vm.AMapEntry, strat Strategy, lazy, res *[]vm.PageRun) ([]CollapsedRun, int, int) {
	ps := uint64(as.PageSize())
	var runs []CollapsedRun
	resident, total := 0, 0
	for a := e.Start; a < e.End; a += vm.Addr(ps) {
		pl, ok := as.Resolve(a)
		if !ok {
			continue
		}
		pg := pl.Seg.Page(pl.PageIdx)
		if pg == nil {
			continue
		}
		total++
		isRes := pg.State.Resident
		if isRes {
			resident++
		}
		dst := lazy
		markRes := false
		if strat == ResidentSet && isRes {
			dst = res
			markRes = true
		}
		if strat == PreCopied {
			dst = nil // contents already staged at the destination
		}
		if n := len(runs); n > 0 && runs[n-1].Resident == markRes &&
			e.Start <= runs[n-1].VA && a == runs[n-1].VA+vm.Addr(uint64(runs[n-1].Pages)*ps) {
			runs[n-1].Pages++
		} else {
			runs = append(runs, CollapsedRun{VA: a, Pages: 1, Resident: markRes})
		}
		if dst != nil {
			*dst = append(*dst, vm.PageRun{Index: uint64(len(*dst)), Count: 1, Data: collapsedImage(pg.Data, int(ps))})
		}
	}
	return runs, resident, total
}

// collapsedImage is the image a collapsed attachment carries for a page
// holding data. A full page goes by reference, capped at its length:
// the dead process's frame, which leaves the pool with the context, or
// the borrowed fill row, which is never written. A short or missing
// image is copied, zero-padded to a full page.
func collapsedImage(data []byte, ps int) []byte {
	if len(data) == ps {
		return data[:ps:ps]
	}
	img := make([]byte, ps)
	copy(img, data)
	return img
}

// collapsedAttachment wraps gathered page runs as a collapsed
// attachment. Collapsed pages are densely numbered from zero, one
// page-size run each, so nothing is copied to build it; the images stay
// unchanged for as long as the context lives, which is what lets the
// staged context survive rollback.
func collapsedAttachment(runs []vm.PageRun, pageSize int, resident bool) *ipc.MemAttachment {
	return &ipc.MemAttachment{
		Kind:      ipc.AttachData,
		Size:      uint64(len(runs) * pageSize),
		Collapsed: true,
		Resident:  resident,
		Copy:      resident,
		Runs:      runs,
	}
}

// collapseImagRun re-expresses a pre-existing imaginary run as an IOU
// attachment that keeps the original backing identity.
func collapseImagRun(as *vm.AddressSpace, e vm.AMapEntry) (*ipc.MemAttachment, error) {
	pl, ok := as.Resolve(e.Start)
	if !ok {
		return nil, fmt.Errorf("core: imaginary run at %#x unresolvable", e.Start)
	}
	segByteOff := pl.PageIdx * uint64(as.PageSize())
	return &ipc.MemAttachment{
		Kind:    ipc.AttachIOU,
		VA:      e.Start,
		Size:    e.Size(),
		SegID:   pl.Seg.ID,
		SegOff:  segByteOff,
		SegSize: pl.Seg.Size,
		Backing: ipc.PortID(pl.Seg.BackingPort),
	}, nil
}
