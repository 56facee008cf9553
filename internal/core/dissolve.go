package core

import (
	"fmt"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// DissolveIOUs eagerly pulls every still-owed page of the process's
// imaginary segments from their backers (the OpFlush extension),
// removing the residual dependency a lazily migrated process leaves on
// its old host. It returns the number of pages fetched.
//
// This is the knob for the trade-off §4.4.3 hints at: copy-on-reference
// spreads costs over the process's remote lifetime, but until the IOUs
// dissolve, the source must stay up and keep serving. Flushing after
// the process settles converts the remaining promise into one bulk
// transfer at a quiet moment.
//
// The flush proceeds in bounded chunks (FlushChunkPages per request)
// rather than one message for the whole residual dependency: on the
// stop-and-wait wire a monolithic flush of a large address space
// occupies the link for minutes, and demand read replies for the
// process's concurrent faults would queue behind it past the pager's
// retry budget.
func DissolveIOUs(p *sim.Proc, m *machine.Machine, pr *machine.Process) (int, error) {
	if k := m.Pager.Outstanding(); k > 1 {
		return dissolveWindowed(p, m, pr, k)
	}
	fetched := 0
	seen := map[uint64]bool{}
	for _, r := range pr.AS.Regions() {
		seg := r.Seg
		if seg.Class != vm.ImagSeg || seen[seg.ID] {
			continue
		}
		seen[seg.ID] = true
		n, err := flushSegment(p, m, seg)
		fetched += n
		if err != nil {
			return fetched, err
		}
	}
	return fetched, nil
}

// flushSegment asks seg's backer for its still-owed pages in chunks
// until a short chunk says none are left, and installs each page that
// no fault fetched first. It returns how many pages it installed.
func flushSegment(p *sim.Proc, m *machine.Machine, seg *vm.Segment) (int, error) {
	fetched := 0
	for {
		rep, err := m.IPC.Call(p, &ipc.Message{
			Op:           imag.OpFlush,
			To:           ipc.PortID(seg.BackingPort),
			Body:         &imag.FlushRequest{SegID: seg.ID, MaxPages: FlushChunkPages},
			BodyBytes:    imag.FlushRequestBytes,
			FaultSupport: true,
		})
		if err != nil {
			return fetched, fmt.Errorf("core: dissolve segment %d: %w", seg.ID, err)
		}
		body, ok := rep.Body.(*imag.ReadReply)
		if !ok {
			return fetched, fmt.Errorf("core: dissolve segment %d: bad reply %T", seg.ID, rep.Body)
		}
		ps := seg.PageSize()
		for _, run := range body.Runs {
			for j := 0; j < run.Count; j++ {
				idx := run.Index + uint64(j)
				// Skip pages already fetched by earlier faults.
				if seg.Page(idx) != nil {
					continue
				}
				vp := seg.Receive(idx, run.Page(j, ps))
				vp.MarkWritten() // no local disk copy yet
				m.Pager.Install(seg, idx)
				fetched++
			}
		}
		if body.PageCount() < FlushChunkPages {
			return fetched, nil
		}
	}
}

// dissolveWindowed drains each imaginary segment with up to k chunked
// flush calls in flight (the pager's Outstanding knob applied to
// dissolution). The backer's Flush is stateful — it marks pages
// delivered as it serves them — so concurrent chunk requests naturally
// receive disjoint page runs, and their replies interleave on the wire
// with the process's demand faults instead of queuing strictly behind
// one another. Page installation keeps the seg.Page(idx) != nil skip
// guard, so a demand fault racing a flush chunk stays idempotent.
func dissolveWindowed(p *sim.Proc, m *machine.Machine, pr *machine.Process, k int) (int, error) {
	type flushResult struct {
		fetched int
		err     error
	}
	fetched := 0
	seen := map[uint64]bool{}
	for _, r := range pr.AS.Regions() {
		seg := r.Seg
		if seg.Class != vm.ImagSeg || seen[seg.ID] {
			continue
		}
		seen[seg.ID] = true
		done := sim.NewQueue[flushResult](m.K)
		for w := 0; w < k; w++ {
			m.K.Go(fmt.Sprintf("%s.dissolve%d", m.Name, w), func(wp *sim.Proc) {
				var res flushResult
				res.fetched, res.err = flushSegment(wp, m, seg)
				done.Push(res)
			})
		}
		var firstErr error
		for w := 0; w < k; w++ {
			res := done.Pop(p)
			fetched += res.fetched
			if firstErr == nil {
				firstErr = res.err
			}
		}
		if firstErr != nil {
			return fetched, firstErr
		}
	}
	return fetched, nil
}

// FlushChunkPages bounds one flush request during IOU dissolution.
// 256 pages (128 KB at the Perq's 512-byte pages) keeps each reply to
// well under a second of wire time, so concurrent demand faults are
// answered between chunks.
const FlushChunkPages = 256
