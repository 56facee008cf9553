// Package pager implements the Pager/Scheduler role of §2.2–2.3: it
// resolves memory touches into FillZero faults (cheap, diskless), disk
// faults (local page-in), and imaginary faults (an Imaginary Read
// Request to the segment's backing port, with optional prefetch), and
// it manages physical-memory residency including dirty write-back.
//
// For simulation economy the fault path executes in the context of the
// faulting process while charging the machine CPU, rather than
// context-switching to a separate Pager/Scheduler process; the elapsed
// times and CPU consumption are the same, which is what the paper
// measures.
package pager

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"accentmig/internal/disk"
	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/metrics"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// ErrAddressError reports a touch of BadMem, which in Accent invokes
// the debugger on the delinquent process.
var ErrAddressError = errors.New("pager: address error (BadMem)")

// ErrBackerLost reports that an imaginary fault could not be serviced
// after all retries.
var ErrBackerLost = errors.New("pager: imaginary read request unanswered")

// ErrSegmentDead reports that the backer answered an imaginary fault
// with a definitive refusal (the segment was dropped or never held the
// page) — retrying can never succeed.
var ErrSegmentDead = errors.New("pager: imaginary segment dead at backer")

// OrphanPolicy selects what happens to an imaginary fault whose backer
// is gone (dead peer, crashed backer, dead segment).
type OrphanPolicy int

const (
	// OrphanFail surfaces the loss as an error to the faulting process.
	OrphanFail OrphanPolicy = iota
	// OrphanZeroFill degrades the orphaned fault to a FillZero: the
	// process continues with a zero page instead of dying.
	OrphanZeroFill
)

// The fault cost model, calibrated so a local disk fault lands near
// the paper's 40.8 ms and a remote imaginary fault near 115 ms
// (DESIGN.md §3).
const (
	// fillZeroCPU is the whole cost of a FillZero fault: reserve a
	// frame, zero it, map it. The disk is never consulted.
	fillZeroCPU = 3 * time.Millisecond
	// faultCPU is the base fault-handling overhead (trap, map lookup,
	// resume) charged on disk and imaginary faults.
	faultCPU = 7 * time.Millisecond
	// imagCPU is the extra Pager/Scheduler work on the faulting side of
	// an imaginary fault (building the request, fielding the reply).
	imagCPU = 38 * time.Millisecond
	// mapInCPU is charged per page mapped in from a fault reply.
	mapInCPU = 2 * time.Millisecond
)

// Config sets the pager's recovery and streaming policy. Zero values
// select the defaults.
type Config struct {
	// RetryTimeout bounds the wait for an imaginary read reply; on
	// expiry the request is resent. Zero waits forever (reliable link).
	RetryTimeout time.Duration
	// MaxRetries bounds resends when RetryTimeout is set.
	MaxRetries int
	// Orphan selects the fate of faults whose backer is unreachable or
	// definitively gone. Default OrphanFail.
	Orphan OrphanPolicy
	// Outstanding is how many imaginary fetches the pager may keep in
	// flight at once (windowed IOU streaming). At the default (0 or 1)
	// an imaginary fault synchronously requests the demand page plus
	// its whole prefetch run in one reply, exactly as before. With
	// K > 1 and prefetch enabled, faults ask the backer to split its
	// reply: the demanded page returns alone — the faulting process
	// unblocks as soon as that one-page reply lands — and the prefetch
	// run follows as a background-priority reply that overlaps the
	// process's compute and yields the wire to demand traffic. Up to K
	// such background runs may be in flight before faults fall back to
	// the synchronous path.
	Outstanding int
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	return c
}

// Stats counts fault activity.
type Stats struct {
	FillZero   uint64
	DiskFaults uint64
	ImagFaults uint64
	Retries    uint64
	ZeroFills  uint64 // orphaned imaginary faults resolved by zero-fill

	PrefetchedPages uint64 // extra pages that arrived with fault replies
	PrefetchHits    uint64 // prefetched pages later touched
	StreamedPages   uint64 // prefetch replies that arrived as background stream messages
	StreamWaits     uint64 // faults parked on an in-flight streamed page

	// Content-addressed store counters (dedup enabled only).
	LocalServes  uint64 // imaginary faults satisfied from the local content index
	HolderServes uint64 // imaginary faults satisfied by a nearest-holder fetch
}

// HitRatio reports the fraction of prefetched pages that were
// eventually touched.
func (s Stats) HitRatio() float64 {
	if s.PrefetchedPages == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.PrefetchedPages)
}

// Pager is one machine's fault handler.
type Pager struct {
	k    *sim.Kernel
	name string
	cpu  *sim.Resource
	phys *vm.PhysMem
	dsk  *disk.Disk
	sys  *ipc.System
	cfg  Config

	prefetch int
	rec      *metrics.Recorder
	stats    Stats

	// Windowed IOU streaming state (Outstanding > 1 only); nil until
	// the first streamed fault so default runs schedule exactly the
	// processes they always did. streamPort receives the background
	// prefetch halves of split fault replies; streamSegs resolves their
	// SegID back to a segment; streamInFlight soft-caps concurrent
	// split replies at cfg.Outstanding. streamPending marks pages a
	// split reply has promised but not yet delivered (from the demand
	// half's StreamRuns), so a demand fault on one parks on a waiter
	// queue instead of buying a duplicate round trip.
	streamPort     *ipc.Port
	streamSegs     map[uint64]*vm.Segment
	streamInFlight int
	streamPending  map[pageKey]bool
	streamWaiters  map[pageKey][]*sim.Queue[struct{}]

	// Content-addressed fault serving (dedup enabled only; all nil/zero
	// otherwise). hints remembers the content hash of still-owed
	// imaginary pages, one run per segment ID, registered at process
	// insertion from the migration manifest. index is the machine's
	// content index. resolver maps a hash to the backing port of the
	// nearest machine holding that content (nearest by link cost; wired
	// by the testbed), letting a fault bypass a distant origin backer.
	index    *vm.ContentIndex
	hints    map[uint64]hintRun
	resolver func(hash uint64) (ipc.PortID, bool)
}

// hintRun holds the content hashes of pages first, first+1, ... of one
// segment. vm.ZeroHash marks a page with no hint: a zero page, or one
// whose content is local now.
type hintRun struct {
	first  uint64
	hashes []uint64
}

type pageKey struct {
	segID uint64
	index uint64
}

// New assembles a pager from the machine's parts.
func New(k *sim.Kernel, name string, cpu *sim.Resource, phys *vm.PhysMem, dsk *disk.Disk, sys *ipc.System, cfg Config) *Pager {
	return &Pager{
		k:    k,
		name: name,
		cpu:  cpu,
		phys: phys,
		dsk:  dsk,
		sys:  sys,
		cfg:  cfg.withDefaults(),
	}
}

// SetPrefetch sets how many extra contiguous pages each imaginary read
// request asks for (the paper's PF0/1/3/7/15 knob).
func (pg *Pager) SetPrefetch(n int) { pg.prefetch = n }

// Prefetch reports the current prefetch amount.
func (pg *Pager) Prefetch() int { return pg.prefetch }

// Outstanding reports the configured imaginary-fetch concurrency,
// never less than one.
func (pg *Pager) Outstanding() int {
	if pg.cfg.Outstanding < 1 {
		return 1
	}
	return pg.cfg.Outstanding
}

// SetRecorder directs remote-fault latency observations to rec (may be
// nil).
func (pg *Pager) SetRecorder(rec *metrics.Recorder) { pg.rec = rec }

// SetContentIndex attaches the machine's content index; faults on
// hinted pages may then be served locally.
func (pg *Pager) SetContentIndex(ix *vm.ContentIndex) { pg.index = ix }

// SetHolderResolver installs the nearest-holder lookup: given a content
// hash, return the backing port of the closest machine (by link cost)
// whose index holds it. Wired by testbeds, not by machine config — a
// resolver is topology, not tuning.
func (pg *Pager) SetHolderResolver(fn func(hash uint64) (ipc.PortID, bool)) {
	pg.resolver = fn
}

// RegisterHints remembers the content hashes of still-owed pages
// first, first+1, ... of imaginary segment segID, so a later fault on
// one can consult the content index before buying a wire round trip.
// A vm.ZeroHash entry registers nothing: elided zero pages are
// reconstructed at insertion and never fault. The pager keeps hashes
// and clears an entry once its page is local. A segment registered
// again has only its new hints: a segment is one absorbed attachment,
// whose content fixes its hashes.
func (pg *Pager) RegisterHints(segID, first uint64, hashes []uint64) {
	if pg.hints == nil {
		pg.hints = make(map[uint64]hintRun)
	}
	pg.hints[segID] = hintRun{first, hashes}
}

// hint reports the content hash registered for page idx of segment
// segID.
func (pg *Pager) hint(segID, idx uint64) (uint64, bool) {
	r := pg.hints[segID]
	if off := idx - r.first; off < uint64(len(r.hashes)) && r.hashes[off] != vm.ZeroHash {
		return r.hashes[off], true
	}
	return 0, false
}

// dropHint forgets page idx's hint once the page's content is local.
func (pg *Pager) dropHint(segID, idx uint64) {
	r := pg.hints[segID]
	if off := idx - r.first; off < uint64(len(r.hashes)) {
		r.hashes[off] = vm.ZeroHash
	}
}

// Stats returns a copy of the fault counters.
func (pg *Pager) Stats() Stats { return pg.stats }

// faultStart opens a fault span in the flight recorder; kind is the
// fault class (fillzero, disk, imag).
func (pg *Pager) faultStart(p *sim.Proc, kind string, addr vm.Addr) {
	if pg.k.Tracing() {
		pg.k.Emit(obs.Event{
			Kind:    obs.FaultStart,
			Machine: pg.name,
			Proc:    p.Name(),
			Name:    kind,
			Addr:    uint64(addr),
		})
	}
}

// faultResolved closes a fault span; Dur is the resolution latency.
func (pg *Pager) faultResolved(p *sim.Proc, kind string, addr vm.Addr, start time.Duration) {
	if pg.k.Tracing() {
		pg.k.Emit(obs.Event{
			Kind:    obs.FaultResolved,
			Machine: pg.name,
			Proc:    p.Name(),
			Name:    kind,
			Addr:    uint64(addr),
			Dur:     p.Now() - start,
		})
	}
}

// Touch makes the page under addr resident, faulting as needed, and
// updates LRU. write additionally marks the page dirty, first giving a
// borrowed page its private frame (a host-side copy no simulated cost
// charges). This is the MMU+fault path every simulated memory reference
// takes. A resident reference costs one region compare (the address
// space's translation cache), one page-table lookup and an LRU relink
// through the page's own frame link; only a fault looks the page up
// again, once it is in.
func (pg *Pager) Touch(p *sim.Proc, as *vm.AddressSpace, addr vm.Addr, write bool) error {
	pl, ok := as.Resolve(addr)
	if !ok {
		return fmt.Errorf("%w: %#x in %s", ErrAddressError, addr, pg.name)
	}
	page := pl.Seg.Page(pl.PageIdx)

	switch {
	case page == nil && pl.Seg.Class == vm.ImagSeg:
		start := p.Now()
		pg.faultStart(p, "imag", addr)
		if err := pg.imagFault(p, pl); err != nil {
			return err
		}
		if pg.rec != nil {
			pg.rec.ObserveRemoteFault(p.Now() - start)
		}
		pg.faultResolved(p, "imag", addr, start)
	case page == nil:
		// FillZero: conjure a zero frame; never touches the disk.
		start := p.Now()
		pg.faultStart(p, "fillzero", addr)
		pg.cpu.UseHigh(p, fillZeroCPU)
		pl.Seg.MaterializeZero(pl.PageIdx)
		pg.insert(pl.Seg, pl.PageIdx)
		pg.stats.FillZero++
		pg.faultResolved(p, "fillzero", addr, start)
	case page.State.Resident:
		pg.phys.Touch(page)
	case page.State.OnDisk:
		start := p.Now()
		pg.faultStart(p, "disk", addr)
		pg.cpu.UseHigh(p, faultCPU)
		pg.dsk.Read(p, as.PageSize())
		pg.insert(pl.Seg, pl.PageIdx)
		pg.stats.DiskFaults++
		pg.faultResolved(p, "disk", addr, start)
	default:
		// Materialized, not resident, not on disk: data just arrived in
		// a message; only the mapping is missing (§2.3's cheap RealMem
		// case).
		pg.cpu.UseHigh(p, mapInCPU)
		pg.insert(pl.Seg, pl.PageIdx)
	}

	if page == nil {
		page = pl.Seg.Page(pl.PageIdx)
	}
	if page.Prefetched {
		page.Prefetched = false
		pg.stats.PrefetchHits++
	}
	if write {
		pl.Seg.BreakCOW(page)
		page.MarkWritten()
	}
	return nil
}

// Read returns n bytes at addr, faulting the page in first.
func (pg *Pager) Read(p *sim.Proc, as *vm.AddressSpace, addr vm.Addr, n int) ([]byte, error) {
	if err := pg.Touch(p, as, addr, false); err != nil {
		return nil, err
	}
	pl, _ := as.Resolve(addr)
	if n > as.PageSize()-pl.Offset {
		n = as.PageSize() - pl.Offset
	}
	return pl.Seg.Read(pl.PageIdx, pl.Offset, n), nil
}

// Write stores data at addr (within one page), faulting first.
func (pg *Pager) Write(p *sim.Proc, as *vm.AddressSpace, addr vm.Addr, data []byte) error {
	if err := pg.Touch(p, as, addr, true); err != nil {
		return err
	}
	pl, _ := as.Resolve(addr)
	if len(data) > as.PageSize()-pl.Offset {
		return fmt.Errorf("pager: write of %d bytes crosses page boundary at %#x", len(data), addr)
	}
	pl.Seg.Write(pl.PageIdx, pl.Offset, data)
	return nil
}

// Install publicly exposes residency insertion for context insertion
// (core.InsertProcess): the page becomes resident and dirty evictees
// are written back in the background.
func (pg *Pager) Install(seg *vm.Segment, idx uint64) {
	if pg.k.Tracing() {
		pg.k.Emit(obs.Event{
			Kind:    obs.PageTransfer,
			Machine: pg.name,
			Name:    "install",
			Addr:    uint64(idx),
			Bytes:   seg.PageSize(),
		})
	}
	pg.insert(seg, idx)
}

// insert makes the page resident, writing back any dirty evictees in
// the background.
func (pg *Pager) insert(seg *vm.Segment, idx uint64) {
	for _, ev := range pg.phys.Insert(seg, idx) {
		if ev.WasDirty {
			pg.dsk.WriteAsync(pg.k, seg.PageSize())
		}
	}
}

// imagFault services a touch of owed memory: an Imaginary Read Request
// to the backing port, a wait for the reply, and map-in of the demand
// page plus any prefetched neighbours.
func (pg *Pager) imagFault(p *sim.Proc, pl vm.Place) error {
	pg.stats.ImagFaults++
	if h, hinted := pg.hint(pl.Seg.ID, pl.PageIdx); hinted &&
		!pg.streamPending[pageKey{pl.Seg.ID, pl.PageIdx}] {
		// The page's content is known by hash: try the local content
		// index (zero wire cost), then the nearest holder (one short
		// round trip to a closer machine than the origin backer). Either
		// failure falls through to the ordinary origin-backer request.
		if pg.contentFault(p, pl, h) {
			return nil
		}
	}
	if pg.streamPending[pageKey{pl.Seg.ID, pl.PageIdx}] {
		// The page is already on the wire inside an in-flight split
		// reply: park until the stream delivers it. The residual wait is
		// a fraction of a full request round trip, and skipping the
		// duplicate request keeps the wire clear for the stream itself.
		pg.cpu.UseHigh(p, faultCPU)
		pg.stats.StreamWaits++
		q := sim.NewQueue[struct{}](pg.k)
		key := pageKey{pl.Seg.ID, pl.PageIdx}
		pg.streamWaiters[key] = append(pg.streamWaiters[key], q)
		// Bound the park even on a reliable link: a background reply has
		// no retransmit path of its own, so a lost stream must degrade
		// into an ordinary (fully retried) request, not a hang.
		timeout := pg.cfg.RetryTimeout
		if timeout <= 0 {
			timeout = 2 * time.Second
		}
		q.PopTimeout(p, timeout)
		if pl.Seg.Page(pl.PageIdx) != nil {
			pg.cpu.UseHigh(p, mapInCPU)
			pg.insert(pl.Seg, pl.PageIdx)
			return nil
		}
		// The stream never delivered; fall through to a full request.
		pg.cpu.UseHigh(p, imagCPU)
	} else {
		pg.cpu.UseHigh(p, faultCPU+imagCPU)
	}

	// Windowed streaming: ask the backer to split its reply — the
	// demanded page returns alone (a one-page reply unstalls this
	// process fastest) and the prefetch run follows as a separate
	// background reply into streamPort, overlapping this process's
	// compute instead of stretching its stall.
	stream := pg.cfg.Outstanding > 1 && pg.prefetch > 0 && pg.streamInFlight < pg.cfg.Outstanding
	req := &imag.ReadRequest{SegID: pl.Seg.ID, PageIdx: pl.PageIdx, Prefetch: pg.prefetch}
	if stream {
		pg.ensureStreamRecv()
		pg.streamSegs[pl.Seg.ID] = pl.Seg
		req.StreamTo = uint64(pg.streamPort.ID)
	}
	reply := pg.sys.AllocPort("imag-reply")
	defer pg.sys.RemovePort(reply)

	var rep *ipc.Message
	for attempt := 0; ; attempt++ {
		// A concurrent bulk flush (core.DissolveIOUs) may have
		// materialized the page while this fault was waiting on the
		// wire; the owed data is already here, so stop asking for it.
		if pl.Seg.Page(pl.PageIdx) != nil {
			pg.insert(pl.Seg, pl.PageIdx)
			return nil
		}
		m := &ipc.Message{
			Op:           imag.OpReadRequest,
			To:           ipc.PortID(pl.Seg.BackingPort),
			ReplyTo:      reply.ID,
			Body:         req,
			BodyBytes:    imag.ReadRequestBytes,
			FaultSupport: true,
		}
		if err := pg.sys.Send(p, m); err != nil {
			return pg.orphan(p, pl,
				fmt.Errorf("pager: imaginary fault on seg %s page %d: %w", pl.Seg.Name, pl.PageIdx, err))
		}
		if pg.cfg.RetryTimeout <= 0 {
			rep = pg.sys.Receive(p, reply)
			break
		}
		var ok bool
		rep, ok = pg.sys.ReceiveTimeout(p, reply, pg.cfg.RetryTimeout)
		if ok {
			break
		}
		pg.stats.Retries++
		if attempt >= pg.cfg.MaxRetries {
			return pg.orphan(p, pl, fmt.Errorf("%w: seg %s page %d after %d attempts",
				ErrBackerLost, pl.Seg.Name, pl.PageIdx, attempt+1))
		}
	}

	switch rep.Op {
	case ipc.OpSendFailed:
		// The transport declared the backer's machine unreachable.
		return pg.orphan(p, pl, fmt.Errorf("%w: seg %s page %d: peer unreachable",
			ErrBackerLost, pl.Seg.Name, pl.PageIdx))
	case imag.OpReadError:
		reason := "no reason"
		if e, ok := rep.Body.(*imag.ReadError); ok {
			reason = e.Reason
		}
		return pg.orphan(p, pl, fmt.Errorf("%w: seg %s page %d: %s",
			ErrSegmentDead, pl.Seg.Name, pl.PageIdx, reason))
	}

	body, ok := rep.Body.(*imag.ReadReply)
	if !ok || body.PageCount() == 0 {
		return fmt.Errorf("pager: malformed imaginary read reply for seg %s page %d", pl.Seg.Name, pl.PageIdx)
	}
	ps := pl.Seg.PageSize()
	first := true
	for _, run := range body.Runs {
		for j := 0; j < run.Count; j++ {
			idx := run.Index + uint64(j)
			// A page may have arrived earlier via prefetch and a duplicate
			// can show up under retries; newest data wins either way. The
			// per-page map-in charge and residency insertion keep their
			// original order even though data arrives run-batched.
			page := pl.Seg.Receive(idx, run.Page(j, ps))
			pg.cpu.UseHigh(p, mapInCPU)
			pg.insert(pl.Seg, idx)
			if pg.index != nil {
				// The page's content is now local: index it under its
				// manifest hash so duplicate content faults stop paying
				// for the wire.
				if hh, hinted := pg.hint(pl.Seg.ID, idx); hinted {
					if page := pl.Seg.Page(idx); page != nil {
						pg.index.Put(hh, page.Data)
					}
					pg.dropHint(pl.Seg.ID, idx)
				}
			}
			if !first && idx != pl.PageIdx {
				pg.stats.PrefetchedPages++
				page.Prefetched = true
			}
			first = false
		}
	}
	if body.Streaming {
		pg.streamInFlight++
		for _, run := range body.StreamRuns {
			for j := 0; j < run.Count; j++ {
				pg.streamPending[pageKey{pl.Seg.ID, run.Index + uint64(j)}] = true
			}
		}
	}
	return nil
}

// contentFault tries to satisfy an imaginary fault by content instead
// of by origin: first the local index (a private copy, since the index
// aliases live frames; no wire), then a HashRead to the nearest holder
// the resolver names. It reports whether the page was installed; false
// means the caller proceeds with the ordinary backing-port request.
func (pg *Pager) contentFault(p *sim.Proc, pl vm.Place, h uint64) bool {
	if data, hit := pg.index.Lookup(h); hit {
		pg.cpu.UseHigh(p, faultCPU+vm.LocalServeCPU+mapInCPU)
		pl.Seg.Receive(pl.PageIdx, bytes.Clone(data))
		pg.insert(pl.Seg, pl.PageIdx)
		pg.dropHint(pl.Seg.ID, pl.PageIdx)
		pg.stats.LocalServes++
		return true
	}
	if pg.resolver == nil {
		return false
	}
	port, ok := pg.resolver(h)
	if !ok || port == ipc.PortID(pl.Seg.BackingPort) {
		return false
	}
	pg.cpu.UseHigh(p, faultCPU+imagCPU)
	reply := pg.sys.AllocPort("hash-reply")
	defer pg.sys.RemovePort(reply)
	err := pg.sys.Send(p, &ipc.Message{
		Op:           imag.OpHashRead,
		To:           port,
		ReplyTo:      reply.ID,
		Body:         &imag.HashRead{Hash: h, SegID: pl.Seg.ID, Page: pl.PageIdx},
		BodyBytes:    imag.HashReadBytes,
		FaultSupport: true,
	})
	if err != nil {
		return false
	}
	var rep *ipc.Message
	if pg.cfg.RetryTimeout > 0 {
		var got bool
		if rep, got = pg.sys.ReceiveTimeout(p, reply, pg.cfg.RetryTimeout); !got {
			return false // one shot only; the origin path owns retries
		}
	} else {
		rep = pg.sys.Receive(p, reply)
	}
	body, ok := rep.Body.(*imag.ReadReply)
	if rep.Op != imag.OpReadReply || !ok || body.PageCount() == 0 {
		return false
	}
	pl.Seg.Receive(pl.PageIdx, body.Runs[0].Page(0, pl.Seg.PageSize()))
	pg.cpu.UseHigh(p, mapInCPU)
	pg.insert(pl.Seg, pl.PageIdx)
	if page := pl.Seg.Page(pl.PageIdx); page != nil {
		pg.index.Put(h, page.Data)
	}
	pg.dropHint(pl.Seg.ID, pl.PageIdx)
	pg.stats.HolderServes++
	return true
}

// RepairPage replaces one installed page whose content failed its
// integrity checksum, fetching the true bytes named by hash: the local
// content index first (a stale or corrupt entry fails its verify
// re-hash, so the index can never hand the damage back), then a
// HashRead to the holder the resolver names — for a migration install,
// the source, which indexed every shipped page when it stamped the
// checksums. A zero hash needs no fetch at all: the page borrows no
// image, which reads as zeros. Like the install it repairs, a repair
// borrows (vm.Segment.Receive), so it never changes the pool count.
// Reports whether the page now holds verified content; false sends the
// caller to its own failure path.
func (pg *Pager) RepairPage(p *sim.Proc, seg *vm.Segment, idx, hash uint64) bool {
	if hash == vm.ZeroHash {
		pg.cpu.UseHigh(p, fillZeroCPU)
		seg.Receive(idx, nil)
		pg.insert(seg, idx)
	} else if !pg.contentFault(p, vm.Place{Seg: seg, PageIdx: idx}, hash) {
		return false
	}
	if page := seg.Page(idx); page != nil {
		// The repaired content still exists nowhere on local disk.
		page.State.Dirty = true
	}
	return true
}

// ensureStreamRecv lazily allocates the stream port and spawns the
// receiver that materializes background prefetch halves of split fault
// replies. Failures are silent by design: streaming is opportunistic,
// and any page it fails to deliver simply faults on demand later
// through the fully error-handled imagFault path.
func (pg *Pager) ensureStreamRecv() {
	if pg.streamPort != nil {
		return
	}
	pg.streamPort = pg.sys.AllocPort(pg.name + ".pager.stream")
	pg.streamSegs = make(map[uint64]*vm.Segment)
	pg.streamPending = make(map[pageKey]bool)
	pg.streamWaiters = make(map[pageKey][]*sim.Queue[struct{}])
	pg.k.Go(pg.name+".pager.stream", func(p *sim.Proc) {
		for {
			m := pg.sys.Receive(p, pg.streamPort)
			body, ok := m.Body.(*imag.ReadReply)
			if m.Op != imag.OpReadReply || !ok {
				continue
			}
			if body.Streaming {
				// Final reply of a split: one outstanding slot frees.
				pg.streamInFlight--
			}
			seg, ok := pg.streamSegs[body.SegID]
			if !ok {
				continue
			}
			pg.stats.StreamedPages++
			ps := seg.PageSize()
			for _, run := range body.Runs {
				for j := 0; j < run.Count; j++ {
					idx := run.Index + uint64(j)
					key := pageKey{seg.ID, idx}
					if seg.Page(idx) == nil {
						page := seg.Receive(idx, run.Page(j, ps))
						// Mapping in opportunistic pages yields the CPU
						// to fault handling.
						pg.cpu.Use(p, mapInCPU)
						pg.insert(seg, idx)
						pg.stats.PrefetchedPages++
						page.Prefetched = true
					}
					delete(pg.streamPending, key)
					for _, q := range pg.streamWaiters[key] {
						q.Push(struct{}{})
					}
					delete(pg.streamWaiters, key)
				}
			}
		}
	})
}

// orphan applies the configured policy to a fault whose backer can
// never answer: OrphanFail returns cause to the faulting process;
// OrphanZeroFill degrades the fault to a FillZero and lets execution
// continue with a zero page.
func (pg *Pager) orphan(p *sim.Proc, pl vm.Place, cause error) error {
	if pl.Seg.Page(pl.PageIdx) != nil {
		// The page arrived by other means (bulk flush, prefetch) while
		// the doomed request was outstanding — no orphan after all.
		pg.insert(pl.Seg, pl.PageIdx)
		return nil
	}
	if pg.cfg.Orphan != OrphanZeroFill {
		return cause
	}
	pg.cpu.UseHigh(p, fillZeroCPU)
	pl.Seg.MaterializeZero(pl.PageIdx)
	pg.insert(pl.Seg, pl.PageIdx)
	pg.stats.ZeroFills++
	return nil
}
