package core

import (
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// This file implements Theimer's V-system pre-copy migration (§5
// Related Work) as a comparison point: the context is copied
// iteratively *while the process keeps executing*, re-sending pages
// dirtied during each round, and only then is the process stopped and
// moved. Downtime shrinks, but both hosts pay the full transfer cost —
// the trade the paper contrasts with copy-on-reference.

// Pre-copy protocol operations.
const (
	// OpPreCopy carries one round of staged pages (Body: *PreCopyBody,
	// pages as Data attachments addressed by VA).
	OpPreCopy = 0x2005
	// OpPreCopyAck confirms a staging round.
	OpPreCopyAck = 0x2006
)

// PreCopyBody tags a staging round.
type PreCopyBody struct {
	ProcName string
	Round    int
}

// The iterative transfer's stop rule.
const (
	// preCopyMaxRounds bounds the iterations before the process is
	// stopped regardless of dirtying rate.
	preCopyMaxRounds = 4
	// preCopyStopPages stops iterating early once a round would resend
	// at most this many pages.
	preCopyStopPages = 8
)

// PreCopyReport accounts one pre-copy migration.
type PreCopyReport struct {
	Rounds        []int // pages sent per running round
	Downtime      time.Duration
	Total         time.Duration
	ProcCompleted bool // the program finished before it could be moved
}

// stalePages lists (VA, version, data snapshot) for every materialized
// page whose content is newer than what was last sent.
type stalePage struct {
	va      vm.Addr
	version uint32
	data    []byte
}

func collectStale(pr *machine.Process, sent map[vm.Addr]uint32) []stalePage {
	ps := uint64(pr.AS.PageSize())
	var out []stalePage
	for _, r := range pr.AS.Regions() {
		if r.Seg.Class != vm.RealSeg {
			continue
		}
		firstPage := r.SegOff / ps
		lastPage := (r.SegOff + r.Size() - 1) / ps
		for idx := firstPage; idx <= lastPage; idx++ {
			pg := r.Seg.Page(idx)
			if pg == nil {
				continue
			}
			va := r.Start + vm.Addr(idx*ps-r.SegOff)
			if v, ok := sent[va]; ok && v >= pg.Version {
				continue
			}
			snap := make([]byte, len(pg.Data))
			copy(snap, pg.Data)
			out = append(out, stalePage{va: va, version: pg.Version, data: snap})
		}
	}
	return out
}

// stageRound ships one batch of pages to the destination manager and
// waits for the ack, which a transport nack or DefaultAckTimeout fails.
// Pages are packed into per-VA-run attachments.
func (mgr *Manager) stageRound(p *sim.Proc, procName string, destPort ipc.PortID, round int, pages []stalePage) error {
	ps := uint64(mgr.M.PageSize())
	var atts []*ipc.MemAttachment
	var cur *ipc.MemAttachment
	for _, sp := range pages {
		if cur == nil || sp.va != cur.VA+vm.Addr(cur.Size) {
			cur = &ipc.MemAttachment{Kind: ipc.AttachData, VA: sp.va, Copy: true}
			atts = append(atts, cur)
		}
		cur.AppendPage(cur.Size/ps, sp.data)
		cur.Size += ps
	}
	reply := mgr.M.IPC.AllocPort("precopy-reply")
	defer mgr.M.IPC.RemovePort(reply)
	err := mgr.M.IPC.Send(p, &ipc.Message{
		Op:        OpPreCopy,
		To:        destPort,
		ReplyTo:   reply.ID,
		Body:      &PreCopyBody{ProcName: procName, Round: round},
		BodyBytes: 64,
		Mem:       atts,
		NoIOUs:    true,
	})
	if err != nil {
		return fmt.Errorf("core: pre-copy round %d: %w", round, err)
	}
	return mgr.awaitReply(p, reply, DefaultAckTimeout, func(*ipc.Message) (bool, error) { return true, nil },
		func(cause error, _ string) error {
			return fmt.Errorf("%w: %q in pre-copy round %d", cause, procName, round)
		})
}

// PreCopyTo migrates procName to the manager at destPort using
// iterative pre-copy. The process keeps running during the copy rounds;
// writes race the transfer and are caught by page versioning. A failed
// round returns its error with the process running at the source.
func (mgr *Manager) PreCopyTo(p *sim.Proc, procName string, destPort ipc.PortID) (*PreCopyReport, error) {
	pr, ok := mgr.M.Process(procName)
	if !ok {
		return nil, fmt.Errorf("core: no process %q on %s", procName, mgr.M.Name)
	}
	start := p.Now()
	rep := &PreCopyReport{}
	sent := make(map[vm.Addr]uint32)

	for round := 0; round < preCopyMaxRounds; round++ {
		stale := collectStale(pr, sent)
		if round > 0 && len(stale) <= preCopyStopPages {
			break
		}
		if len(stale) == 0 {
			break
		}
		for _, sp := range stale {
			sent[sp.va] = sp.version
		}
		if err := mgr.stageRound(p, procName, destPort, round, stale); err != nil {
			return nil, err
		}
		rep.Rounds = append(rep.Rounds, len(stale))
		if pr.Done.Opened() {
			break
		}
	}

	// Stop the process; anything dirtied since the last round moves
	// during downtime.
	mgr.M.RequestPreempt(pr)
	if !mgr.M.WaitStopped(p, pr) {
		rep.ProcCompleted = true
		rep.Total = p.Now() - start
		return rep, nil
	}
	downStart := p.Now()
	final := collectStale(pr, sent)
	if len(final) > 0 {
		if err := mgr.stageRound(p, procName, destPort, len(rep.Rounds), final); err != nil {
			mgr.resumeLocal(p, procName)
			return nil, err
		}
	}

	r, err := mgr.MigrateTo(p, procName, destPort, Options{Strategy: PreCopied})
	if err != nil {
		return nil, err
	}
	rep.Downtime = r.InsertDoneAt - downStart
	rep.Total = r.InsertDoneAt - start
	return rep, nil
}
