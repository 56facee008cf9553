package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/pager"
	"accentmig/internal/workload"
)

// ResilienceOptions are the recovery knobs a config's Recovery hands
// the source migration manager.
type ResilienceOptions struct {
	// MaxRetries is the source manager's retry budget after a
	// recoverable failure.
	MaxRetries int
	// Degrade steps the strategy down the reliability ladder on retry.
	Degrade bool
	// AckTimeout bounds each handshake phase; zero selects the
	// manager's default.
	AckTimeout time.Duration
}

// ResilienceOutcome is everything one fault-injected migration trial
// reports. Error outcomes are recorded as stable class strings, never
// raw error text — raw messages embed globally allocated segment and
// port IDs that differ run to run, and the resilience table must be
// byte-identical for a fixed seed.
type ResilienceOutcome struct {
	Kind     workload.Kind
	Strategy core.Strategy

	// Migrated reports that some attempt's handshake completed and the
	// process was inserted at the destination.
	Migrated bool
	// Aborted reports that the retry budget was exhausted and the
	// process was rolled back to the source intact.
	Aborted bool
	// Completed reports that the program ran to completion — remotely
	// after a successful migration, or locally after an abort.
	Completed bool

	// Attempts the migration took (0 if it never succeeded) and the
	// strategy of the successful attempt.
	Attempts      int
	FinalStrategy core.Strategy

	// MigClass classifies the migration error, ExecClass the
	// post-migration execution error ("" when none).
	MigClass  string
	ExecClass string

	// TotalTime is virtual-time start to program completion (or to the
	// final failure when the program never completed).
	TotalTime time.Duration

	// Downtime is the frozen interval of the final attempt: freeze to
	// the first instruction executed afterwards — at the destination on
	// success, back at the source after a rollback. Zero if the process
	// never ran again.
	Downtime time.Duration

	// BytesTotal is every wire byte the trial moved, across all
	// attempts — the honest cost a retry policy is judged by.
	BytesTotal uint64

	// Reliable-transport overhead, summed over both machines.
	Retransmits     uint64
	RetransmitBytes uint64
	BackoffTime     time.Duration
	DeadPeers       uint64
	// ZeroFills counts orphaned pages materialized as zeros.
	ZeroFills uint64

	// Resumable-retry and integrity accounting for the successful
	// attempt: pages the destination rebuilt from its delivery ledger
	// instead of re-receiving, the wire bytes that elision saved, and
	// corrupt installs repaired by hash re-fetch. All zero when the
	// ledger and per-page checksums are off.
	ResumedPages  int
	ResumedBytes  uint64
	RepairedPages int
	// CorruptPages counts payload pages the fault plan bit-flipped in
	// flight, summed over both machines' transports.
	CorruptPages uint64

	// Invariant evidence for the chaos campaign (chaos.go): the final
	// memory-image digest of the surviving process and where it lives,
	// the frames each machine's pool still holds, and the pages the
	// source store still owes when the trial ends.
	ImageHash  uint64
	ImageOnDst bool
	SrcFrames  uint64
	DstFrames  uint64
	Residual   int
}

// classifyErr maps an error chain onto a short stable class name for
// the resilience table.
func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrMigrationAborted):
		return "aborted"
	case errors.Is(err, core.ErrPhaseTimeout):
		return "phase-timeout"
	case errors.Is(err, core.ErrPeerDead):
		return "peer-dead"
	case errors.Is(err, core.ErrMigrationFailed):
		return "insert-failed"
	case errors.Is(err, pager.ErrBackerLost):
		return "backer-lost"
	case errors.Is(err, pager.ErrSegmentDead):
		return "segment-dead"
	default:
		return "error"
	}
}

// resilienceDefaults hardens the machine config for fault injection: a
// crashed backer never answers and never nacks (the read request
// dead-letters silently at the dead peer), so the pager must run with a
// reply deadline or the faulting process wedges forever.
func resilienceDefaults(cfg Config) Config {
	if cfg.Machine.Pager.RetryTimeout == 0 {
		// Generous: under heavy drop rates a live backer's reply can
		// lag many backoff rounds, and a retry restarts the window.
		cfg.Machine.Pager.RetryTimeout = 10 * time.Second
	}
	if cfg.Machine.Pager.MaxRetries == 0 {
		cfg.Machine.Pager.MaxRetries = 5
	}
	return cfg
}

// RunResilienceTrial migrates representative k under the given
// strategy on a fault-injected testbed, with cfg.Recovery as the retry
// policy, drives the process to completion wherever it ends up
// (destination on success, source after an abort), and reports what
// happened. It terminates for any fault plan with drop probability
// < 1: every wait in the recovery path is deadlined.
func RunResilienceTrial(cfg Config, k workload.Kind, strat core.Strategy) (*ResilienceOutcome, error) {
	cfg = resilienceDefaults(cfg)
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, k)
	if err != nil {
		return nil, err
	}
	m := tb.migrate(cfg, built.Proc, core.Options{Strategy: strat})

	out := &ResilienceOutcome{Kind: k, Strategy: strat}
	out.MigClass = classifyErr(m.err)
	out.Aborted = errors.Is(m.err, core.ErrMigrationAborted)
	if m.rep != nil {
		out.Migrated = true
		out.Attempts = m.rep.Attempts
		out.FinalStrategy = m.rep.FinalStrategy
		out.ResumedPages = m.rep.Insert.ResumedPages
		out.ResumedBytes = uint64(m.rep.Insert.ResumedPages) * uint64(tb.Src.PageSize())
		out.RepairedPages = m.rep.Insert.RepairedPages
	}
	if m.found && m.finished {
		out.ExecClass = classifyErr(m.exec)
		out.Completed = out.ExecClass == ""
	}
	out.TotalTime = m.end

	srcStats, dstStats := tb.Src.Net.Stats(), tb.Dst.Net.Stats()
	out.Retransmits = srcStats.Retransmits + dstStats.Retransmits
	out.RetransmitBytes = srcStats.RetransmitBytes + dstStats.RetransmitBytes
	out.BackoffTime = srcStats.BackoffTime + dstStats.BackoffTime
	out.DeadPeers = srcStats.DeadPeers + dstStats.DeadPeers
	out.ZeroFills = tb.Src.Pager.Stats().ZeroFills + tb.Dst.Pager.Stats().ZeroFills
	out.CorruptPages = srcStats.CorruptPages + dstStats.CorruptPages
	out.BytesTotal = tb.Rec.BytesTotal()
	out.Downtime = tb.Rec.Downtime()
	out.SrcFrames = tb.Src.Pool.InUse()
	out.DstFrames = tb.Dst.Pool.InUse()
	out.Residual = tb.Src.Net.Store().TotalRemaining()
	if h, ok := tb.Dst.ImageHash(k.String()); ok {
		out.ImageHash, out.ImageOnDst = h, true
	} else if h, ok := tb.Src.ImageHash(k.String()); ok {
		out.ImageHash = h
	}
	return out, nil
}

// ResilienceRow is one line of the resilience table: a scenario name
// plus the outcomes of its per-seed trials.
type ResilienceRow struct {
	Scenario string
	Strategy core.Strategy
	DropProb float64
	Outcomes []*ResilienceOutcome
}

// Succeeded counts trials whose program completed.
func (r *ResilienceRow) Succeeded() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Completed {
			n++
		}
	}
	return n
}

// Migrated counts trials whose migration handshake succeeded.
func (r *ResilienceRow) Migrated() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Migrated {
			n++
		}
	}
	return n
}

// meanCompleted averages TotalTime over completed trials (0 if none).
func (r *ResilienceRow) meanCompleted() time.Duration {
	var sum time.Duration
	n := 0
	for _, o := range r.Outcomes {
		if o.Completed {
			sum += o.TotalTime
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ResilienceTable is the -exp resilience result: the drop-rate sweep
// and the crash/partition scenarios.
type ResilienceTable struct {
	Kind  workload.Kind
	Sweep []*ResilienceRow
	// Scenarios are the targeted failure cases: backer crash during
	// remote execution under each orphan policy, and a full partition
	// forcing an abort with source-side rollback.
	Scenarios []*ResilienceRow
}

// resilienceDrops is the drop-probability axis of the sweep.
var resilienceDrops = []float64{0, 0.05, 0.15, 0.30}

// resilienceSeeds are the fault-plan seeds each cell is repeated with.
var resilienceSeeds = []uint64{1, 2, 3}

// resilienceKind is the representative the resilience experiment
// migrates: large enough that every strategy moves real memory and the
// IOU strategies leave residual dependencies worth attacking.
const resilienceKind = workload.LispDel

// Resilience sweeps drop rate × strategy (each cell repeated across
// fault seeds) and runs the crash-timing scenarios, all on the engine's
// worker pool with memoization.
func (e *Engine) Resilience(cfg Config) (*ResilienceTable, error) {
	// Every cell but the partition scenario retries under the command
	// line's policy, or else this one. Its ack deadline is a backstop: a
	// genuinely dead peer surfaces in seconds through the transport's
	// dead-peer nack, while a pure-copy transfer at 30% drop
	// legitimately takes many virtual minutes of backoff, so the
	// deadline sits far above any viable transfer.
	if cfg.Recovery == nil {
		cfg.Recovery = &ResilienceOptions{MaxRetries: 2, Degrade: true, AckTimeout: 15 * time.Minute}
	}
	// The sweep builds its own fault plans per cell; a plan inherited
	// from the command line would skew the fault-free baseline rows and
	// break the fixed-seed determinism contract.
	cfg.Faults = nil
	cfg = cfg.forParallel(e.Workers())

	type cell struct {
		row   *ResilienceRow
		idx   int
		cfg   Config
		strat core.Strategy
	}
	var cells []cell

	t := &ResilienceTable{Kind: resilienceKind}
	for _, strat := range core.Strategies() {
		for _, drop := range resilienceDrops {
			row := &ResilienceRow{
				Scenario: "drop-sweep",
				Strategy: strat,
				DropProb: drop,
				Outcomes: make([]*ResilienceOutcome, len(resilienceSeeds)),
			}
			t.Sweep = append(t.Sweep, row)
			for i, seed := range resilienceSeeds {
				c := cfg
				if drop > 0 {
					c.Faults = faults.FromDropRate(drop, seed)
				}
				cells = append(cells, cell{row: row, idx: i, cfg: c, strat: strat})
			}
		}
	}

	// Backer-crash scenarios: the source machine's backing service dies
	// once remote execution begins, stranding the pure-IOU process's
	// residual dependencies. One row per orphaned-IOU policy.
	crashPlan := func(policy faults.CrashPolicy) *faults.Plan {
		return &faults.Plan{Seed: 1, Crashes: []faults.Crash{
			{Machine: "src", AtPhase: "remote", Policy: policy},
		}}
	}
	for _, sc := range []struct {
		name   string
		policy faults.CrashPolicy
		orphan pager.OrphanPolicy
	}{
		{"crash-src@remote/fail", faults.CrashFail, pager.OrphanFail},
		{"crash-src@remote/zerofill", faults.CrashZeroFill, pager.OrphanZeroFill},
		{"crash-src@remote/flush", faults.CrashFlush, pager.OrphanFail},
	} {
		c := cfg
		c.Faults = crashPlan(sc.policy)
		c.Machine.Pager.Orphan = sc.orphan
		row := &ResilienceRow{
			Scenario: sc.name,
			Strategy: core.PureIOU,
			Outcomes: make([]*ResilienceOutcome, 1),
		}
		t.Scenarios = append(t.Scenarios, row)
		cells = append(cells, cell{row: row, idx: 0, cfg: c, strat: core.PureIOU})
	}

	// Partition scenario: the link is dead from the start, so every
	// attempt times out and the migration must abort cleanly — the
	// process rolls back and completes at the source.
	{
		c := cfg
		c.Faults = &faults.Plan{Seed: 1, Partitions: []faults.Window{
			{Start: 0, End: faults.Duration(60 * time.Second)},
		}}
		row := &ResilienceRow{
			Scenario: "partition@start",
			Strategy: core.PureIOU,
			Outcomes: make([]*ResilienceOutcome, 1),
		}
		t.Scenarios = append(t.Scenarios, row)
		c.Recovery = &ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: 2 * time.Second}
		cells = append(cells, cell{row: row, idx: 0, cfg: c, strat: core.PureIOU})
	}

	outs, err := sweep(e, cells, func(c cell) (*ResilienceOutcome, error) {
		return e.ResilienceTrial(c.cfg, resilienceKind, c.strat)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		c.row.Outcomes[c.idx] = outs[i]
	}
	return t, nil
}

// FormatResilience renders the resilience table. Completion-time
// inflation is relative to the same strategy's fault-free row.
func FormatResilience(t *ResilienceTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience under injected faults (%s, %d seeds per cell)\n\n",
		t.Kind, len(resilienceSeeds))
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %9s %8s %9s %9s %10s %12s %8s\n",
		"Strategy", "Drop", "Migrated", "Complete", "Attempts", "Inflate",
		"Downtime", "Retrans", "Backoff", "RetransKB", "Resumed")

	baseline := map[core.Strategy]time.Duration{}
	for _, r := range t.Sweep {
		if r.DropProb == 0 {
			baseline[r.Strategy] = r.meanCompleted()
		}
	}
	for _, r := range t.Sweep {
		var retrans, rbytes uint64
		var backoff, down time.Duration
		attempts, resumed := 0, 0
		for _, o := range r.Outcomes {
			retrans += o.Retransmits
			rbytes += o.RetransmitBytes
			backoff += o.BackoffTime
			attempts += o.Attempts
			down += o.Downtime
			resumed += o.ResumedPages
		}
		n := len(r.Outcomes)
		inflate := "-"
		if base := baseline[r.Strategy]; base > 0 && r.meanCompleted() > 0 {
			inflate = fmt.Sprintf("%.2fx", float64(r.meanCompleted())/float64(base))
		}
		fmt.Fprintf(&b, "%-10s %5.0f%% %6d/%-2d %6d/%-2d %9.1f %8s %8.1fs %9d %10s %12.1f %8d\n",
			r.Strategy, 100*r.DropProb, r.Migrated(), n, r.Succeeded(), n,
			float64(attempts)/float64(n), inflate,
			(down / time.Duration(n)).Seconds(),
			retrans, (backoff / time.Duration(n)).Round(time.Millisecond),
			float64(rbytes)/1024/float64(n), resumed)
	}

	fmt.Fprintf(&b, "\nFailure scenarios (%s, strategy %s)\n\n", t.Kind, core.PureIOU)
	fmt.Fprintf(&b, "%-26s %8s %8s %8s %9s %9s %9s %9s\n",
		"Scenario", "Migrated", "Complete", "Aborted", "Attempts", "MigErr", "ExecErr", "ZeroFill")
	for _, r := range t.Scenarios {
		o := r.Outcomes[0]
		yn := func(v bool) string {
			if v {
				return "yes"
			}
			return "no"
		}
		dash := func(s string) string {
			if s == "" {
				return "-"
			}
			return s
		}
		fmt.Fprintf(&b, "%-26s %8s %8s %8s %9d %9s %9s %9d\n",
			r.Scenario, yn(o.Migrated), yn(o.Completed), yn(o.Aborted),
			o.Attempts, dash(o.MigClass), dash(o.ExecClass), o.ZeroFills)
	}
	return b.String()
}
