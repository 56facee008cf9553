// Package experiments reproduces the paper's evaluation section: one
// harness per table and figure, each running migration trials of the
// seven representative processes on a fresh two-machine testbed and
// reporting the same rows or series the paper does.
package experiments

import (
	"fmt"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/ipc"
	"accentmig/internal/machine"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/obs"
	"accentmig/internal/pager"
	"accentmig/internal/sim"
	"accentmig/internal/workload"
)

// Config tunes the testbed for ablations; the zero value reproduces the
// paper's setup.
type Config struct {
	Machine machine.Config
	Link    netlink.Config

	// Faults, when non-nil, is the failure scenario for every testbed
	// built from this config: its drop schedule becomes the link's
	// failure model and its crashes are armed on the kernel.
	Faults *faults.Plan

	// Recovery, when non-nil, sets the source manager's retry policy
	// (budget, degradation, per-phase deadline) for every migration
	// trial run from this config. Nil keeps the fault-free default:
	// no retries, the manager's default ack deadline.
	Recovery *ResilienceOptions

	// Sink, when non-nil, receives the flight-recorder event stream of
	// every kernel built from this config, each testbed's on tracks of
	// its own (obs.ForTrial). Work under a sink runs on one worker and
	// memoizes in memory only: a trial the engine holds writes nothing.
	Sink obs.Sink
}

// applyRecovery folds the config's retry policy into migration options.
func (c Config) applyRecovery(opts *core.Options) {
	if c.Recovery == nil {
		return
	}
	opts.AckTimeout = c.Recovery.AckTimeout
	opts.MaxRetries = c.Recovery.MaxRetries
	opts.Degrade = c.Recovery.Degrade
}

// armed returns cfg as a testbed's machines run it. A faulted run must
// terminate: the fault-free pager default waits forever for read
// replies (reliable link), which a crashed backer would turn into a
// silent wedge, so under a fault plan the pager gets a finite retry
// budget.
func (c Config) armed() Config {
	if c.Faults != nil && c.Machine.Pager.RetryTimeout == 0 {
		c.Machine.Pager.RetryTimeout = 10 * time.Second
	}
	return c
}

// Testbed is the two-machine SPICE pair one trial runs on.
type Testbed struct {
	K        *sim.Kernel
	Src, Dst *machine.Machine
	SrcMgr   *core.Manager
	DstMgr   *core.Manager
	Link     *netlink.Link
	Rec      *metrics.Recorder

	// phaseCrash holds crashes keyed to a migration phase, fired by
	// FirePhase via the source manager's PhaseHook.
	phaseCrash map[string][]faults.Crash
}

// NewTestbed assembles a fresh pair with a shared recorder. A fault
// plan in the config is armed on the new kernel.
func NewTestbed(cfg Config) *Testbed {
	cfg = cfg.armed()
	k := sim.New()
	k.SetSink(obs.ForTrial(cfg.Sink))
	src := machine.New(k, "src", cfg.Machine)
	dst := machine.New(k, "dst", cfg.Machine)
	link := machine.Connect(src, dst, cfg.Link)
	rec := metrics.NewRecorder()
	src.SetRecorder(rec)
	dst.SetRecorder(rec)
	link.SetRecorder(rec)
	srcMgr := core.NewManager(src, core.DefaultTuning())
	dstMgr := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstMgr.Port.ID, "dst")
	dst.Net.AddRoute(srcMgr.Port.ID, "src")
	// Integrity repair re-fetches corrupt pages by hash through the
	// same holder-resolver path dedup uses, so either flag wires it.
	if cfg.Machine.Dedup.Enabled || cfg.Machine.Dedup.Integrity {
		WireHolderResolvers(src, dst)
	}
	tb := &Testbed{
		K: k, Src: src, Dst: dst, SrcMgr: srcMgr, DstMgr: dstMgr, Link: link, Rec: rec,
		phaseCrash: make(map[string][]faults.Crash),
	}
	if cfg.Faults != nil {
		tb.ArmFaults(cfg.Faults)
	}
	return tb
}

// addMachine adds a third machine, name, to the testbed: linked to src
// over toSrc and to dst over toDst, each link under the config's fault
// plan, with routes between its manager and both of theirs. Crashes
// still reach only src and dst.
func (tb *Testbed) addMachine(cfg Config, name string, toSrc, toDst netlink.Config) (*machine.Machine, *core.Manager) {
	cfg = cfg.armed()
	m := machine.New(tb.K, name, cfg.Machine)
	mgr := core.NewManager(m, core.DefaultTuning())
	connect := func(peer *machine.Machine, peerMgr *core.Manager, lc netlink.Config) {
		link := machine.Connect(peer, m, lc)
		if cfg.Faults != nil {
			link.SetFaults(faults.NewInjector(cfg.Faults, ""))
		}
		peer.Net.AddRoute(mgr.Port.ID, name)
		m.Net.AddRoute(peerMgr.Port.ID, peer.Name)
	}
	connect(tb.Src, tb.SrcMgr, toSrc)
	connect(tb.Dst, tb.DstMgr, toDst)
	return m, mgr
}

// dataProcess creates a process, name, with ports ports on the source
// machine, holding pages data pages from address 0 in one region. Every
// page is on disk, in index order; fill writes page i's content, and a
// nil fill leaves every page zero.
func (tb *Testbed) dataProcess(name string, ports, pages int, fill func(i int, page []byte)) (*machine.Process, error) {
	pr, err := tb.Src.NewProcess(name, ports)
	if err != nil {
		return nil, err
	}
	ps := tb.Src.PageSize()
	reg, err := pr.AS.Validate(0, uint64(pages*ps), "data")
	if err != nil {
		return nil, err
	}
	var page []byte // Materialize copies, so one buffer serves every page
	if fill != nil {
		page = make([]byte, ps)
	}
	for i := 0; i < pages; i++ {
		if fill != nil {
			fill(i, page)
		}
		reg.Seg.Materialize(uint64(i), page).State.OnDisk = true
	}
	return pr, nil
}

// WireHolderResolvers gives each machine a nearest-holder resolver
// over the others: a fault on a hash-hinted page that misses the local
// content index asks the first listed peer whose index holds the
// content, falling back to the origin backer when none does. Order the
// machines nearest-first — a resolver is topology, not tuning, which
// is why testbeds wire it rather than machine config. Backer-port
// routes are added eagerly; they are otherwise only learned from IOU
// attachments, which never name a bystander holder.
func WireHolderResolvers(ms ...*machine.Machine) {
	for i, m := range ms {
		peers := make([]*machine.Machine, 0, len(ms)-1)
		for j, o := range ms {
			if j != i {
				peers = append(peers, o)
				m.Net.AddRoute(o.Net.BackingPort(), o.Name)
			}
		}
		m.Pager.SetHolderResolver(func(hash uint64) (ipc.PortID, bool) {
			for _, o := range peers {
				if o.Index.Contains(hash) {
					return o.Net.BackingPort(), true
				}
			}
			return 0, false
		})
	}
}

// ArmFaults applies a fault plan to the testbed: the drop schedule
// drives the link, time-keyed crashes get their own timer procs, and
// phase-keyed crashes hook the source manager's migration phases.
func (tb *Testbed) ArmFaults(plan *faults.Plan) {
	tb.Link.SetFaults(faults.NewInjector(plan, ""))
	for _, c := range plan.Crashes {
		c := c
		if c.AtPhase != "" {
			tb.phaseCrash[c.AtPhase] = append(tb.phaseCrash[c.AtPhase], c)
			continue
		}
		tb.K.Go("fault.crash."+c.Machine, func(p *sim.Proc) {
			p.Sleep(time.Duration(c.At))
			tb.runCrash(p, c)
		})
	}
	if len(tb.phaseCrash) > 0 {
		tb.SrcMgr.PhaseHook = tb.FirePhase
	}
}

// FirePhase triggers any crash keyed to the named phase. The source
// manager calls it as migration phases begin; migrate calls it with
// "remote" once remote execution starts.
func (tb *Testbed) FirePhase(p *sim.Proc, phase string) {
	cs := tb.phaseCrash[phase]
	if len(cs) == 0 {
		return
	}
	delete(tb.phaseCrash, phase)
	for _, c := range cs {
		tb.runCrash(p, c)
	}
}

// runCrash executes one scheduled crash: under the flush policy the
// surviving machine first dissolves its residual dependencies on the
// dying backer; then the named machine's backing service goes down.
func (tb *Testbed) runCrash(p *sim.Proc, c faults.Crash) {
	var m *machine.Machine
	switch c.Machine {
	case tb.Src.Name:
		m = tb.Src
	case tb.Dst.Name:
		m = tb.Dst
	default:
		return
	}
	if c.Policy == faults.CrashFlush {
		other := tb.Dst
		if m == tb.Dst {
			other = tb.Src
		}
		for _, name := range other.ProcNames() {
			if pr, ok := other.Process(name); ok {
				_, _ = core.DissolveIOUs(p, other, pr)
			}
		}
	}
	m.Net.Crash()
}

// TrialResult is everything measured from one migration trial.
type TrialResult struct {
	Kind     workload.Kind
	Strategy core.Strategy
	Prefetch int

	Report *core.Report

	// RemoteExec is insertion-complete to program-finish (Figure 4-1).
	RemoteExec time.Duration
	// EndToEnd is RIMAS transfer + remote execution (Figure 4-2 basis).
	EndToEnd time.Duration

	// Wire traffic (Figure 4-3, 4-5).
	BytesTotal uint64
	Series     []metrics.RatePoint
	PeakRate   uint64

	// Message handling (Figure 4-4).
	MsgTime time.Duration

	// Transferred data for Table 4-3: physically shipped pages plus
	// fault-delivered pages.
	DataPages  uint64
	FaultPages uint64

	DestPager pager.Stats

	// RemoteFaultMean is the observed mean remote-fault latency during
	// the trial (zero if none occurred).
	RemoteFaultMean time.Duration

	// Remote (imaginary) fault-resolution latency quantiles from the
	// recorder's log-bucketed histogram; zero if no remote faults
	// occurred.
	FaultP50, FaultP95, FaultP99 time.Duration

	// Downtime is the frozen interval: excise-freeze to the first
	// post-insert instruction at the destination.
	Downtime time.Duration
}

// TransferredRealPct reports the fraction of the RealMem portion that
// physically moved, as Table 4-3's first number.
func (tr *TrialResult) TransferredRealPct() float64 {
	real := float64(workload.PaperNumbers(tr.Kind).RealBytes / 512)
	return 100 * float64(tr.DataPages+tr.FaultPages) / real
}

// TransferredTotalPct is the bracketed Table 4-3 number: the fraction
// of the whole allocated space.
func (tr *TrialResult) TransferredTotalPct() float64 {
	total := float64(workload.PaperNumbers(tr.Kind).TotalBytes / 512)
	return 100 * float64(tr.DataPages+tr.FaultPages) / total
}

// migration is what a trial driver saw of one process: the migration's
// report or error, then the program's run wherever the migration left
// it.
type migration struct {
	rep *core.Report // nil unless the migration succeeded
	err error        // the migration's error

	// found reports that the program was on the machine the migration
	// left it on, and exec is what its run there returned.
	found bool
	exec  error

	// finished reports that the driver got to the end: the kernel did
	// not run dry with it parked. end is the virtual time it did.
	finished bool
	end      time.Duration
}

// migrate starts pr on the source and drives it through the trial every
// two-machine experiment runs: migrate it to the destination with opts
// (the config's retry policy applied), fire the crashes keyed to the
// "remote" phase once remote execution has begun (the manager's hook
// only covers source-side phases), and wait for the program on the
// machine it ends up on: the destination after a migration, the source
// after one that failed and rolled back. It runs the kernel until
// nothing is left to happen.
func (tb *Testbed) migrate(cfg Config, pr *machine.Process, opts core.Options) *migration {
	cfg.applyRecovery(&opts)
	tb.Src.Start(pr)
	m := &migration{}
	tb.K.Go("trial-driver", func(p *sim.Proc) {
		m.rep, m.err = tb.SrcMgr.MigrateTo(p, pr.Name, tb.DstMgr.Port.ID, opts)
		tb.settle(p, m, pr.Name)
	})
	tb.K.Run()
	return m
}

// settle follows the named program once m's migration has returned:
// it fires the crashes keyed to the "remote" phase if the migration
// succeeded, and waits for the program on the machine the migration
// left it on, the destination or, after a failure and rollback, the
// source. Every driver whose program should finish at dst calls it
// after migrating the program there, so remoteErr can tell whether the
// program ran to its end at the destination.
func (tb *Testbed) settle(p *sim.Proc, m *migration, name string) {
	host := tb.Src
	if m.err == nil {
		host = tb.Dst
		tb.FirePhase(p, "remote")
	}
	var npr *machine.Process
	if npr, m.found = host.Process(name); m.found {
		m.exec = npr.WaitDone(p)
	}
	m.finished, m.end = true, p.Now()
}

// remoteErr reports why a trial that must run its program at the
// destination did not, or nil if it did.
func (m *migration) remoteErr(name string) error {
	switch {
	case m.err != nil:
		return m.err
	case !m.finished:
		return fmt.Errorf("experiments: %v trial never completed", name)
	case !m.found:
		return fmt.Errorf("experiments: %v not on destination after migration", name)
	case m.exec != nil:
		return fmt.Errorf("experiments: %v remote execution: %w", name, m.exec)
	}
	return nil
}

// RunTrial migrates representative k under the given strategy and
// prefetch on a fresh testbed and runs it to completion.
func RunTrial(cfg Config, k workload.Kind, strat core.Strategy, prefetch int) (*TrialResult, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, k)
	if err != nil {
		return nil, err
	}
	m := tb.migrate(cfg, built.Proc, core.Options{Strategy: strat, Prefetch: prefetch})
	if err := m.remoteErr(k.String()); err != nil {
		return nil, err
	}

	tr := &TrialResult{Kind: k, Strategy: strat, Prefetch: prefetch, Report: m.rep}
	tr.RemoteExec = m.end - tr.Report.InsertDoneAt
	tr.EndToEnd = tr.Report.RIMASTransfer + tr.RemoteExec
	tr.BytesTotal = tb.Rec.BytesTotal()
	tr.Series = tb.Rec.Series()
	tr.PeakRate = tb.Rec.PeakRate()
	tr.MsgTime = tb.Rec.MessageTime()
	srcNet, dstNet := tb.Src.Net.Stats(), tb.Dst.Net.Stats()
	tr.DataPages = srcNet.DataPages + dstNet.DataPages
	tr.FaultPages = srcNet.FaultPages + dstNet.FaultPages
	tr.DestPager = tb.Dst.Pager.Stats()
	faults := tb.Rec.RemoteFaults()
	tr.RemoteFaultMean = faults.Mean()
	tr.FaultP50 = faults.Quantile(0.50)
	tr.FaultP95 = faults.Quantile(0.95)
	tr.FaultP99 = faults.Quantile(0.99)
	tr.Downtime = tb.Rec.Downtime()
	return tr, nil
}

// GridKey addresses one cell of the evaluation grid.
type GridKey struct {
	Kind     workload.Kind
	Strategy core.Strategy
	Prefetch int
}

// Grid holds the full evaluation sweep the figures share: pure-copy
// once per workload, IOU and RS at each prefetch value.
type Grid struct {
	Cells map[GridKey]*TrialResult
}

// Cell fetches one trial result.
func (g *Grid) Cell(k workload.Kind, s core.Strategy, pf int) *TrialResult {
	return g.Cells[GridKey{k, s, pf}]
}

// RunGrid sweeps the full paper grid for the given workloads on the
// default engine: cells simulate concurrently on the worker pool and
// are memoized, so later harnesses needing the same cells reuse them.
// The result is deep-equal to RunGridSeq for the same config and seed.
func RunGrid(cfg Config, kinds []workload.Kind) (*Grid, error) {
	return Default.RunGrid(cfg, kinds)
}
