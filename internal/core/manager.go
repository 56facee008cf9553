package core

import (
	"errors"
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/obs"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// Options shape one migration.
type Options struct {
	Strategy Strategy
	// Prefetch pages per imaginary fault at the destination.
	Prefetch int
	// HoldAtDest leaves the process stopped after insertion instead of
	// resuming it immediately.
	HoldAtDest bool

	// AckTimeout bounds the wait for each handshake acknowledgement
	// (Core ack, migrate ack). On expiry the attempt is aborted and the
	// process rolled back to the source. Zero selects
	// DefaultAckTimeout; negative waits forever.
	AckTimeout time.Duration
	// MaxRetries is how many further attempts follow a recoverable
	// failure (phase timeout, dead peer). Zero retries never.
	MaxRetries int
	// Degrade steps the strategy down the reliability ladder on every
	// retry (PureIOU → ResidentSet → PureCopy), shedding residual
	// dependencies as the network proves itself unreliable.
	Degrade bool
}

// DefaultAckTimeout is the per-phase handshake deadline when Options
// leaves AckTimeout zero. It is far beyond any healthy transfer, so it
// only fires when the control plane has genuinely failed.
const DefaultAckTimeout = 2 * time.Minute

// Report is the source manager's account of one migration.
type Report struct {
	Excise ExciseTimings
	Insert InsertTimings

	// CoreTransfer is Core-message wall time: send start to arrival,
	// including rights processing at the destination (§4.3.2's ≈1 s).
	CoreTransfer time.Duration
	// RIMASTransfer is the address-space transfer wall time the paper's
	// Table 4-5 reports.
	RIMASTransfer time.Duration
	// Total is excise start to insertion complete.
	Total time.Duration
	// InsertDoneAt is the absolute virtual time insertion completed —
	// the instant remote execution begins.
	InsertDoneAt time.Duration

	RealPages     int
	ResidentPages int
	Attachments   int

	// Attempts counts the tries the migration took (1 = first try).
	Attempts int
	// FinalStrategy is the strategy of the successful attempt, which
	// differs from Options.Strategy after degradation.
	FinalStrategy Strategy
}

// ErrMigrationFailed wraps a destination-reported insertion failure.
var ErrMigrationFailed = errors.New("core: migration failed")

// ErrMigrationAborted reports that every attempt failed and the
// process was rolled back and resumed at the source.
var ErrMigrationAborted = errors.New("core: migration aborted")

// ErrPhaseTimeout reports a handshake acknowledgement missing its
// per-phase deadline.
var ErrPhaseTimeout = errors.New("core: migration phase timed out")

// ErrPeerDead reports that the transport declared the destination
// unreachable mid-migration.
var ErrPeerDead = errors.New("core: migration peer unreachable")

// Manager is the per-machine MigrationManager process (§3.2): it
// accepts context messages on its port and reconstructs processes. The
// source side of a migration runs synchronously in the caller via
// MigrateTo, mirroring the simple command-driven server of the paper.
type Manager struct {
	M    *machine.Machine
	Tun  Tuning
	Port *ipc.Port

	// PhaseHook, when set, is called in the migrating proc's context as
	// each source-side migration phase begins (excise, xfer.core,
	// xfer.manifest, xfer.rimas). Fault harnesses key scheduled crashes
	// to it.
	PhaseHook func(p *sim.Proc, phase string)

	pendingCore map[string]*pending
	// staged holds pre-copied page contents by process and VA, awaiting
	// the final PreCopied handoff.
	staged map[string]map[vm.Addr][]byte
	// recipes holds each process's classified page-manifest recipe — how
	// to rebuild the pages the source was told not to ship — awaiting
	// the RIMAS message that consumes it.
	recipes map[string]*dedupRecipe
}

type pending struct {
	core        *ipc.Message
	coreArrived time.Duration
}

// NewManager creates the manager and starts its service process.
func NewManager(m *machine.Machine, tun Tuning) *Manager {
	mgr := &Manager{
		M:           m,
		Tun:         tun,
		Port:        m.IPC.AllocPort(m.Name + ".migmgr"),
		pendingCore: make(map[string]*pending),
		staged:      make(map[string]map[vm.Addr][]byte),
		recipes:     make(map[string]*dedupRecipe),
	}
	m.K.Go(m.Name+".migmgr", mgr.serve)
	return mgr
}

// phase records the migration phase [start, end] twice — in the
// machine's metrics recorder and in the flight recorder — with the same
// endpoints, so a trace's summed phase spans agree exactly with the
// recorder's Phases() output.
func (mgr *Manager) phase(procName, name string, start, end time.Duration) {
	if rec := mgr.M.Recorder(); rec != nil {
		rec.StartPhase(name, start)
		rec.EndPhase(name, end)
	}
	if mgr.M.K.Tracing() {
		mgr.M.K.EmitAt(start, obs.Event{
			Kind: obs.PhaseBegin, Machine: mgr.M.Name, Proc: procName, Name: name,
		})
		mgr.M.K.EmitAt(end, obs.Event{
			Kind: obs.PhaseEnd, Machine: mgr.M.Name, Proc: procName, Name: name,
		})
	}
}

// state records a migration state transition for procName.
func (mgr *Manager) state(procName, state string) {
	if mgr.M.K.Tracing() {
		mgr.M.K.Emit(obs.Event{
			Kind: obs.StateChange, Machine: mgr.M.Name, Proc: procName, Name: state,
		})
	}
}

// serve handles inbound context messages.
func (mgr *Manager) serve(p *sim.Proc) {
	for {
		m := mgr.M.IPC.Receive(p, mgr.Port)
		switch m.Op {
		case OpCore:
			cb, ok := m.Body.(*CoreBody)
			if !ok {
				continue
			}
			// Rights and PCB processing: the bulk of the ≈1 s Core
			// transfer cost.
			mgr.M.CPU.UseHigh(p, mgr.Tun.CoreRightsCPU+
				time.Duration(len(cb.Rights))*mgr.Tun.PerPortRight)
			mgr.pendingCore[cb.ProcName] = &pending{core: m, coreArrived: p.Now()}
			mgr.state(cb.ProcName, "CoreArrived")
			if m.ReplyTo != 0 {
				_ = mgr.M.IPC.Send(p, &ipc.Message{
					Op:        OpCoreAck,
					To:        m.ReplyTo,
					Body:      &AckBody{ProcName: cb.ProcName, CoreArrived: p.Now(), Attempt: cb.Attempt},
					BodyBytes: 96,
				})
			}
		case OpManifest:
			mb, ok := m.Body.(*ManifestBody)
			if !ok {
				continue
			}
			mgr.handleManifest(p, mb, m)
		case OpRIMAS:
			rb, ok := m.Body.(*RIMASBody)
			if !ok {
				continue
			}
			mgr.handleRIMAS(p, rb, m)
		case OpPreCopy:
			pb, ok := m.Body.(*PreCopyBody)
			if !ok {
				continue
			}
			mgr.handlePreCopy(p, pb, m)
		}
	}
}

// handleManifest classifies a page manifest against the local content
// index, retains the reconstruction recipe for the RIMAS message that
// follows, and answers with the needed-page bitmaps.
func (mgr *Manager) handleManifest(p *sim.Proc, mb *ManifestBody, m *ipc.Message) {
	total := 0
	for _, a := range mb.Atts {
		total += len(a.Hashes)
	}
	// Classification work: each page costs one hash lookup (the index
	// and the delivery ledger both verify hits by re-hashing).
	if d := mgr.M.DedupConfig(); d.ManifestActive() && total > 0 {
		mgr.M.CPU.UseHigh(p, time.Duration(total)*vm.HashPerPageCPU)
	}
	rcp, ack := classifyManifest(mb, mgr.M.Index, mgr.M.Ledger, mgr.M.PageSize())
	// A manifest of an older, abandoned attempt must not clobber the
	// recipe of the attempt actually in flight.
	if old, held := mgr.recipes[mb.ProcName]; !held || mb.Attempt >= old.attempt {
		mgr.recipes[mb.ProcName] = rcp
	}
	mgr.state(mb.ProcName, "ManifestClassified")
	if m.ReplyTo != 0 {
		_ = mgr.M.IPC.Send(p, &ipc.Message{
			Op:        OpManifestAck,
			To:        m.ReplyTo,
			Body:      ack,
			BodyBytes: ack.Bytes(),
		})
	}
}

func (mgr *Manager) handleRIMAS(p *sim.Proc, rb *RIMASBody, m *ipc.Message) {
	rimasArrived := p.Now()
	pend, ok := mgr.pendingCore[rb.ProcName]
	rcp := mgr.recipes[rb.ProcName]
	delete(mgr.recipes, rb.ProcName)
	if rcp != nil && rcp.attempt != rb.Attempt {
		rcp = nil
	}
	ack := &AckBody{ProcName: rb.ProcName, RIMASArrived: rimasArrived, Attempt: rb.Attempt}
	if !ok {
		ack.Err = fmt.Sprintf("RIMAS for %q with no Core context", rb.ProcName)
	} else {
		delete(mgr.pendingCore, rb.ProcName)
		ack.CoreArrived = pend.coreArrived
		var stage map[vm.Addr][]byte
		if rb.PreCopied {
			stage = mgr.staged[rb.ProcName]
			delete(mgr.staged, rb.ProcName)
		}
		pr, it, err := insertProcess(p, mgr.M, pend.core, m, stage, rcp, mgr.Tun)
		if err != nil {
			ack.Err = err.Error()
		} else {
			// The real image is installed: whatever the delivery ledger
			// retained for this migration is now redundant.
			mgr.M.Ledger.Forget(rb.ProcName)
			ack.Insert = it
			ack.InsertDone = p.Now()
			mgr.state(rb.ProcName, "Inserted")
			if !rb.HoldAtDest {
				mgr.M.Start(pr)
			}
		}
	}
	if m.ReplyTo != 0 {
		_ = mgr.M.IPC.Send(p, &ipc.Message{
			Op:        OpMigrateAck,
			To:        m.ReplyTo,
			Body:      ack,
			BodyBytes: 96,
		})
	}
}

// handlePreCopy absorbs one staging round into the per-process stage.
func (mgr *Manager) handlePreCopy(p *sim.Proc, pb *PreCopyBody, m *ipc.Message) {
	stage := mgr.staged[pb.ProcName]
	if stage == nil {
		stage = make(map[vm.Addr][]byte)
		mgr.staged[pb.ProcName] = stage
	}
	ps := uint64(mgr.M.PageSize())
	pages := 0
	for _, a := range m.Mem {
		if a.Kind != ipc.AttachData {
			continue
		}
		for _, run := range a.Runs {
			for j := 0; j < run.Count; j++ {
				stage[a.VA+vm.Addr((run.Index+uint64(j))*ps)] = run.Page(j, int(ps))
				pages++
			}
		}
	}
	// Staging cost: absorbing arrived pages.
	mgr.M.CPU.UseHigh(p, time.Duration(pages)*mgr.Tun.InsertPerArrivedPage)
	if m.ReplyTo != 0 {
		_ = mgr.M.IPC.Send(p, &ipc.Message{
			Op:        OpPreCopyAck,
			To:        m.ReplyTo,
			Body:      &AckBody{ProcName: pb.ProcName},
			BodyBytes: 64,
		})
	}
}

// MigrateTo migrates the named process from this manager's machine to
// the manager listening on destPort, using the given options. It runs
// in the caller's proc on the source machine, waits for the process to
// reach its MigratePoint, and blocks until the destination acknowledges
// insertion — or, under Options' recovery
// knobs, until every attempt has failed, in which case the process is
// rolled back and resumed at the source and the error explains the
// abort. A recoverable failure (phase timeout, dead peer) triggers up
// to MaxRetries further attempts, optionally degrading the strategy.
func (mgr *Manager) MigrateTo(p *sim.Proc, procName string, destPort ipc.PortID, opts Options) (*Report, error) {
	timeout := opts.AckTimeout
	if timeout == 0 {
		timeout = DefaultAckTimeout
	}
	// One reply port across all attempts, so an acknowledgement that
	// limps in after its attempt was abandoned still lands here — the
	// Attempt echo tells stale from current, and a stale success is
	// adopted rather than discarded (the destination really does hold
	// the process).
	reply := mgr.M.IPC.AllocPort("migrate-reply")
	defer mgr.M.IPC.RemovePort(reply)

	strat := opts.Strategy
	retryDelay := 500 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		if attempt > 0 {
			p.Sleep(retryDelay)
			retryDelay *= 2
			if opts.Degrade {
				strat = Degrade(strat)
			}
			mgr.state(procName, "Retrying")
		}
		rep, err := mgr.migrateOnce(p, procName, destPort, reply, opts, strat, timeout, attempt)
		if err == nil {
			rep.Attempts = attempt + 1
			rep.FinalStrategy = strat
			return rep, nil
		}
		lastErr = err
		if !recoverable(err) {
			mgr.resumeLocal(p, procName)
			return nil, err
		}
	}
	mgr.resumeLocal(p, procName)
	return nil, fmt.Errorf("%w: %q after %d attempts: %w",
		ErrMigrationAborted, procName, opts.MaxRetries+1, lastErr)
}

// recoverable reports whether a failed attempt is worth retrying.
func recoverable(err error) bool {
	return errors.Is(err, ErrPhaseTimeout) || errors.Is(err, ErrPeerDead)
}

// hook fires the PhaseHook, if any.
func (mgr *Manager) hook(p *sim.Proc, phase string) {
	if mgr.PhaseHook != nil {
		mgr.PhaseHook(p, phase)
	}
}

// resumeLocal restarts a rolled-back process after a final abort, so
// the source machine keeps running it as if migration had never been
// attempted.
func (mgr *Manager) resumeLocal(p *sim.Proc, procName string) {
	if pr, ok := mgr.M.Process(procName); ok && pr.Status == machine.AtMigrationPoint {
		mgr.M.Start(pr)
		mgr.state(procName, "ResumedAtSource")
	}
}

// migrateOnce runs a single migration attempt end to end. On any
// failure after the excise it rolls the process back onto the source
// machine before returning the cause.
func (mgr *Manager) migrateOnce(p *sim.Proc, procName string, destPort ipc.PortID, reply *ipc.Port, opts Options, strat Strategy, timeout time.Duration, attempt int) (*Report, error) {
	pr, ok := mgr.M.Process(procName)
	if !ok {
		return nil, fmt.Errorf("core: no process %q on %s", procName, mgr.M.Name)
	}
	pr.AtMigrate.Wait(p)
	startAt := p.Now()
	if rec := mgr.M.Recorder(); rec != nil {
		// Downtime opens here: the process executes no further
		// instruction until it resumes at the destination (or rolls
		// back). machine.exec closes the span.
		rec.MarkFreeze(startAt)
	}

	mgr.hook(p, "excise")
	ctx, err := ExciseProcess(p, mgr.M, pr, strat, opts.Prefetch, mgr.Tun)
	if err != nil {
		return nil, err
	}
	// Snapshot the RIMAS attachment list before the forwarder sees it:
	// IOU absorption replaces elements in place, and rollback must
	// reinstate the original page data.
	memSnap := append([]*ipc.MemAttachment(nil), ctx.RIMAS.Mem...)
	fail := func(cause error) error {
		if rbErr := mgr.rollback(p, pr, ctx, memSnap); rbErr != nil {
			return errors.Join(cause, rbErr)
		}
		return cause
	}

	// Core context first; wait for its arrival ack so the RIMAS
	// transfer is measured on an idle wire, as Table 4-5 does. The
	// source-side rights/PCB packaging belongs to this transfer window,
	// which is why Core transmission takes ≈1 s in all cases.
	mgr.hook(p, "xfer.core")
	coreSendStart := p.Now()
	cb := ctx.Core.Body.(*CoreBody)
	cb.Attempt = attempt
	mgr.M.CPU.UseHigh(p, mgr.Tun.CoreRightsCPU+
		time.Duration(len(cb.Rights))*mgr.Tun.PerPortRight)
	ctx.Core.To = destPort
	ctx.Core.ReplyTo = reply.ID
	if err := mgr.M.IPC.Send(p, ctx.Core); err != nil {
		return nil, fail(fmt.Errorf("%w: sending Core context: %v", ErrPeerDead, err))
	}
	coreAck, adopted, err := mgr.awaitAck(p, reply, OpCoreAck, attempt, timeout, procName, "xfer.core")
	if err != nil {
		return nil, fail(err)
	}
	if adopted {
		return mgr.adoptedReport(p, procName, ctx, coreAck, startAt), nil
	}

	mgr.hook(p, "xfer.rimas")
	rimasSendStart := p.Now()
	rb := ctx.RIMAS.Body.(*RIMASBody)
	rb.HoldAtDest = opts.HoldAtDest
	rb.Attempt = attempt
	// With the content-addressed store or the delivery ledger on, a
	// manifest round-trip precedes the RIMAS transfer: the destination
	// names the pages it cannot rebuild — locally, or from content a
	// failed earlier attempt already delivered — and only those ship.
	// The exchange lives inside the xfer.rimas window, so its cost
	// weighs against its savings.
	if d := mgr.M.DedupConfig(); d.ManifestActive() && !rb.PreCopied {
		mgr.hook(p, "xfer.manifest")
		if err := mgr.exchangeManifest(p, procName, destPort, reply, ctx, timeout, attempt, d); err != nil {
			return nil, fail(err)
		}
	}
	if mgr.M.DedupConfig().Integrity {
		mgr.stampIntegrity(p, ctx)
	}
	ctx.RIMAS.To = destPort
	ctx.RIMAS.ReplyTo = reply.ID
	if err := mgr.M.IPC.Send(p, ctx.RIMAS); err != nil {
		return nil, fail(fmt.Errorf("%w: sending RIMAS context: %v", ErrPeerDead, err))
	}

	ack, adopted, err := mgr.awaitAck(p, reply, OpMigrateAck, attempt, timeout, procName, "xfer.rimas")
	if err != nil {
		return nil, fail(err)
	}
	if adopted {
		return mgr.adoptedReport(p, procName, ctx, ack, startAt), nil
	}
	if ack.Err != "" {
		return nil, fail(fmt.Errorf("%w: %s", ErrMigrationFailed, ack.Err))
	}
	mgr.phase(procName, "excise", startAt, startAt+ctx.Timings.Overall)
	mgr.phase(procName, "xfer.core", coreSendStart, coreAck.CoreArrived)
	mgr.phase(procName, "xfer.rimas", rimasSendStart, ack.RIMASArrived)
	mgr.phase(procName, "insert", ack.InsertDone-ack.Insert.Overall, ack.InsertDone)
	return &Report{
		Excise:        ctx.Timings,
		Insert:        ack.Insert,
		CoreTransfer:  coreAck.CoreArrived - coreSendStart,
		RIMASTransfer: ack.RIMASArrived - rimasSendStart,
		Total:         ack.InsertDone - startAt,
		InsertDoneAt:  ack.InsertDone,
		RealPages:     ctx.RealPages,
		ResidentPages: ctx.ResidentPages,
		Attachments:   ctx.Attachments,
	}, nil
}

// adoptedReport builds the report for a migration completed by a
// stale successful acknowledgement: an earlier attempt's insertion
// succeeded but its ack was delayed past the retransmission. The
// destination holds the process, so the current attempt's in-flight
// context is abandoned and the earlier completion adopted.
func (mgr *Manager) adoptedReport(p *sim.Proc, procName string, ctx *Context, ack *AckBody, startAt time.Duration) *Report {
	mgr.state(procName, "AdoptedStaleAck")
	return &Report{
		Excise:        ctx.Timings,
		Insert:        ack.Insert,
		Total:         p.Now() - startAt,
		InsertDoneAt:  ack.InsertDone,
		RealPages:     ctx.RealPages,
		ResidentPages: ctx.ResidentPages,
		Attachments:   ctx.Attachments,
	}
}

// awaitAck waits for the given acknowledgement of the current attempt,
// bounded by the per-phase timeout (non-positive waits forever). Acks
// from earlier attempts are skipped as stale — except a successful
// OpMigrateAck, which is adopted (adopted true): the destination
// completed that attempt's insertion, so the migration has in fact
// succeeded. An OpSendFailed nack from the transport becomes
// ErrPeerDead.
func (mgr *Manager) awaitAck(p *sim.Proc, reply *ipc.Port, wantOp, attempt int, timeout time.Duration, procName, phase string) (ack *AckBody, adopted bool, err error) {
	err = mgr.awaitReply(p, reply, timeout, func(m *ipc.Message) (bool, error) {
		if _, stale := m.Body.(*ManifestAckBody); stale {
			return false, nil // manifest ack limping in from an abandoned attempt
		}
		ab, ok := m.Body.(*AckBody)
		if !ok {
			return false, fmt.Errorf("core: malformed migration ack for %q: op %#x body %T",
				procName, m.Op, m.Body)
		}
		if ab.Attempt != attempt {
			if m.Op == OpMigrateAck && ab.Err == "" {
				ack, adopted = ab, true
				return true, nil
			}
			return false, nil // stale ack of an abandoned attempt
		}
		if m.Op != wantOp {
			return false, nil // duplicate of an already-consumed ack
		}
		ack = ab
		return true, nil
	}, func(cause error, reason string) error {
		if cause == ErrPeerDead {
			return fmt.Errorf("%w: %q in %s (attempt %d): %s", cause, procName, phase, attempt, reason)
		}
		return fmt.Errorf("%w: %q awaiting ack in %s (attempt %d)", cause, procName, phase, attempt)
	})
	return ack, adopted, err
}

// awaitReply receives messages on reply until take accepts one (or
// fails), bounded by the per-phase timeout (non-positive waits
// forever). A timeout returns fail(ErrPhaseTimeout, ""), and an
// OpSendFailed nack from the transport fail(ErrPeerDead, reason): fail
// formats the caller's error text, and only on those paths.
func (mgr *Manager) awaitReply(p *sim.Proc, reply *ipc.Port, timeout time.Duration, take func(*ipc.Message) (bool, error), fail func(cause error, reason string) error) error {
	deadline := p.Now() + timeout
	for {
		var m *ipc.Message
		if timeout <= 0 {
			m = mgr.M.IPC.Receive(p, reply)
		} else {
			remain := deadline - p.Now()
			if remain <= 0 {
				return fail(ErrPhaseTimeout, "")
			}
			var got bool
			if m, got = mgr.M.IPC.ReceiveTimeout(p, reply, remain); !got {
				return fail(ErrPhaseTimeout, "")
			}
		}
		if m.Op == ipc.OpSendFailed {
			reason := "unknown"
			if sf, ok := m.Body.(*ipc.SendFailure); ok {
				reason = sf.Reason
			}
			return fail(ErrPeerDead, reason)
		}
		if done, err := take(m); done || err != nil {
			return err
		}
	}
}

// exchangeManifest runs the page-manifest round-trip for one attempt
// and applies the destination's answer to the RIMAS message: elided
// pages are stripped from the attachments (the rollback snapshot keeps
// the originals), and what remains is run through the modeled
// compressor when configured. Timeouts and dead peers surface as the
// usual recoverable phase errors.
func (mgr *Manager) exchangeManifest(p *sim.Proc, procName string, destPort ipc.PortID, reply *ipc.Port, ctx *Context, timeout time.Duration, attempt int, d vm.DedupConfig) error {
	ps := mgr.M.PageSize()
	mb, pages := buildManifest(procName, attempt, ctx.RIMAS, mgr.M.NetConfig(), ps)
	if pages == 0 {
		return nil
	}
	// Hashing sweeps the collapsed pages once, at manifest build.
	mgr.M.CPU.UseHigh(p, time.Duration(pages)*vm.HashPerPageCPU)
	if err := mgr.M.IPC.Send(p, &ipc.Message{
		Op:        OpManifest,
		To:        destPort,
		ReplyTo:   reply.ID,
		Body:      mb,
		BodyBytes: mb.Bytes(),
	}); err != nil {
		return fmt.Errorf("%w: sending page manifest: %v", ErrPeerDead, err)
	}
	ack, err := mgr.awaitManifestAck(p, reply, attempt, timeout, procName)
	if err != nil {
		return err
	}
	mem := make([]*ipc.MemAttachment, len(ctx.RIMAS.Mem))
	copy(mem, ctx.RIMAS.Mem)
	for i, a := range mem {
		if i >= len(mb.Atts) || !mb.Atts[i].WillShip {
			continue
		}
		n := len(mb.Atts[i].Hashes)
		if n == 0 {
			continue
		}
		if i < len(ack.Needed) && len(ack.Needed[i]) == (n+7)/8 {
			mem[i] = elideAttachment(a, ack.Needed[i], ps)
		}
		if d.Compress {
			if mem[i] == a {
				// Don't stamp CompBytes onto the rollback snapshot's
				// attachment — compress a copy.
				cp := *a
				mem[i] = &cp
			}
			np := compressAttachment(mem[i], ps)
			mgr.M.CPU.UseHigh(p, time.Duration(np)*vm.CompressPerPageCPU)
		}
	}
	ctx.RIMAS.Mem = mem
	return nil
}

// awaitManifestAck waits for the manifest answer of the current
// attempt, bounded by the per-phase timeout.
func (mgr *Manager) awaitManifestAck(p *sim.Proc, reply *ipc.Port, attempt int, timeout time.Duration, procName string) (ack *ManifestAckBody, err error) {
	err = mgr.awaitReply(p, reply, timeout, func(m *ipc.Message) (bool, error) {
		ab, ok := m.Body.(*ManifestAckBody)
		if !ok || ab.Attempt != attempt {
			return false, nil // stale ack of an earlier attempt or phase
		}
		ack = ab
		return true, nil
	}, func(cause error, reason string) error {
		if cause == ErrPeerDead {
			return fmt.Errorf("%w: %q awaiting manifest ack (attempt %d): %s", cause, procName, attempt, reason)
		}
		return fmt.Errorf("%w: %q awaiting manifest ack (attempt %d)", cause, procName, attempt)
	})
	return ack, err
}

// rollback reinstates an excised process on the source machine from
// its own context messages, leaving it stopped at its migration point
// exactly as before the excise. The Context retains every collapsed
// page (strategies other than PreCopied always ship or cache the
// data), so insertion needs nothing from the network.
func (mgr *Manager) rollback(p *sim.Proc, pr *machine.Process, ctx *Context, memSnap []*ipc.MemAttachment) error {
	rb := ctx.RIMAS.Body.(*RIMASBody)
	if rb.PreCopied {
		return fmt.Errorf("core: cannot roll back %q: pre-copied pages live only at the destination", pr.Name)
	}
	ctx.RIMAS.Mem = memSnap
	newPr, _, err := InsertProcess(p, mgr.M, ctx.Core, ctx.RIMAS, mgr.Tun)
	if err != nil {
		return fmt.Errorf("core: rollback of %q: %w", pr.Name, err)
	}
	// The process is back where the excise found it: stopped at its
	// migration point, ready for a retry or a local resume.
	newPr.Status = machine.AtMigrationPoint
	newPr.AtMigrate.Open()
	mgr.state(pr.Name, "RolledBack")
	return nil
}
