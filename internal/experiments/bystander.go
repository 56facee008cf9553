package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/machine"
	"accentmig/internal/metrics"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// BystanderRow measures how much a migration disturbs an unrelated
// process on the source machine.
type BystanderRow struct {
	Strategy core.Strategy
	// Baseline is the bystander's runtime with no migration at all.
	Baseline time.Duration
	// WithMigration is its runtime while the migration runs alongside.
	WithMigration time.Duration
	// SlowdownPct is the interference cost.
	SlowdownPct float64
}

// bystanderBursts is how many 100 ms compute bursts the bystander runs
// (≈20 s of compute).
const bystanderBursts = 200

// BystanderImpact quantifies §4.4.2/§4.4.3's point that "each second of
// execution time spent by the NetMsgServer ... is a second stolen from
// all processes in both systems": a compute-bound bystander shares the
// source CPU while another process migrates away under each strategy.
// Pure-copy's bulk transfer burst steals far more of the bystander's
// time than the IOU trickle does.
func BystanderImpact(cfg Config) ([]BystanderRow, error) {
	baseline, err := bystanderRun(cfg, nil)
	if err != nil {
		return nil, err
	}
	var rows []BystanderRow
	for _, strat := range []core.Strategy{core.PureIOU, core.ResidentSet, core.PureCopy} {
		strat := strat
		with, err := bystanderRun(cfg, &strat)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BystanderRow{
			Strategy:      strat,
			Baseline:      baseline,
			WithMigration: with,
			SlowdownPct:   100 * (with.Seconds() - baseline.Seconds()) / baseline.Seconds(),
		})
	}
	return rows, nil
}

// bystanderRun times the bystander, optionally with a 512-page process
// migrating off the same machine under the given strategy.
func bystanderRun(cfg Config, strat *core.Strategy) (time.Duration, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()

	by, err := tb.Src.NewProcess("bystander", 0)
	if err != nil {
		return 0, err
	}
	var ops []trace.Op
	for i := 0; i < bystanderBursts; i++ {
		ops = append(ops, trace.Compute{D: 100 * time.Millisecond})
	}
	by.Program = &trace.Program{Ops: ops}

	var m *migration
	if strat != nil {
		mig, err := tb.dataProcess("migrant", 1, 512, nil)
		if err != nil {
			return 0, err
		}
		var res []vm.Addr
		for i := 0; i < 128; i++ {
			res = append(res, vm.Addr(i*512))
		}
		if err := tb.Src.MakeResident(mig, res); err != nil {
			return 0, err
		}
		migOps := []trace.Op{trace.MigratePoint{}}
		migOps = append(migOps, trace.SeqScan{Bytes: 128 * 512, PerTouch: 10 * time.Millisecond})
		mig.Program = &trace.Program{Ops: migOps}
		tb.Src.Start(mig)
		m = &migration{}
		tb.K.Go("migrate-driver", func(p *sim.Proc) {
			m.rep, m.err = tb.SrcMgr.MigrateTo(p, "migrant", tb.DstMgr.Port.ID, core.Options{Strategy: *strat})
			tb.settle(p, m, "migrant")
		})
	}

	tb.Src.Start(by)
	var done time.Duration
	tb.K.Go("bystander-waiter", func(p *sim.Proc) {
		by.WaitDone(p)
		done = p.Now()
	})
	tb.K.RunUntil(30 * time.Minute)
	if m != nil {
		if err := m.remoteErr("migrant"); err != nil {
			return 0, err
		}
	}
	if done == 0 {
		return 0, fmt.Errorf("experiments: bystander never finished")
	}
	return done, nil
}

// FormatBystander renders the interference comparison.
func FormatBystander(rows []BystanderRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bystander interference: source-machine compute job during migration\n")
	if len(rows) > 0 {
		fmt.Fprintf(&b, "baseline (no migration): %.1fs\n", rows[0].Baseline.Seconds())
	}
	fmt.Fprintf(&b, "%-8s %12s %10s\n", "", "w/migration", "slowdown")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %11.1fs %+9.1f%%\n", r.Strategy, r.WithMigration.Seconds(), r.SlowdownPct)
	}
	return b.String()
}

// ResidualPoint samples the source's owed pages at a virtual time.
type ResidualPoint struct {
	T     time.Duration
	Pages int
}

// ResidualSeries traces the residual dependency of a lazily migrated
// Lisp-Del over its remote lifetime: how many pages the old host still
// owes at each second, with and without prefetch. The curve's long tail
// is the §4.4.3 cost-distribution story seen from the source's side.
func ResidualSeries(cfg Config, kind workload.Kind, prefetch int, step time.Duration) ([]ResidualPoint, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, kind)
	if err != nil {
		return nil, err
	}
	tb.Src.Start(built.Proc)
	m := &migration{}
	tb.K.Go("driver", func(p *sim.Proc) {
		m.rep, m.err = tb.SrcMgr.MigrateTo(p, kind.String(), tb.DstMgr.Port.ID, core.Options{
			Strategy: core.PureIOU, Prefetch: prefetch,
		})
		tb.settle(p, m, kind.String())
	})
	var series []ResidualPoint
	for t := step; !m.finished && t < 2*time.Hour; t += step {
		tb.K.RunUntil(t)
		series = append(series, ResidualPoint{T: t, Pages: tb.Src.Net.Store().TotalRemaining()})
	}
	tb.K.Run()
	if err := m.remoteErr(kind.String()); err != nil {
		return nil, err
	}
	series = append(series, ResidualPoint{T: tb.K.Now(), Pages: tb.Src.Net.Store().TotalRemaining()})
	return series, nil
}

// FormatResidual renders the series compactly (only points where the
// count changed).
func FormatResidual(kind workload.Kind, series []ResidualPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Residual dependency over time: pages still owed by the source (%s, IOU)\n", kind)
	last := -1
	for _, pt := range series {
		if pt.Pages == last {
			continue
		}
		last = pt.Pages
		fmt.Fprintf(&b, "  t=%6.0fs owed=%5d\n", pt.T.Seconds(), pt.Pages)
	}
	return b.String()
}

// HopPenaltyRow reports mean remote-fault latency by backer distance.
type HopPenaltyRow struct {
	Hops      int
	FaultMean time.Duration
}

// HopPenalty measures how fault latency grows when a process migrates
// again and its memory stays with the original backer: every fault then
// relays through an extra NetMsgServer. This is the quantified case for
// the Balancer's dispersal-aware candidate scoring.
//
// The first hop, src to dst, runs on a testbed, so a fault plan, the
// pager's retry timeout under it and crashes keyed to a migration phase
// reach the scenario as they reach every trial; "remote" fires once the
// hopper runs at dst. The second hop goes on to a third machine, far,
// linked to both under the same plan.
func HopPenalty(cfg Config) ([]HopPenaltyRow, error) {
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	far, farMgr := tb.addMachine(cfg, "far", cfg.Link, cfg.Link)
	// The hopper never runs at src, so the testbed's recorder holds only
	// dst's faults, the one-hop ones; far's are the two-hop ones.
	farRec := metrics.NewRecorder()
	far.SetRecorder(farRec)

	pr, err := tb.dataProcess("hopper", 1, 64, nil)
	if err != nil {
		return nil, err
	}
	var ops []trace.Op
	ops = append(ops, trace.MigratePoint{})
	for i := 0; i < 16; i++ { // measured at 1 hop
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	ops = append(ops, trace.MigratePoint{})
	for i := 16; i < 32; i++ { // measured at 2 hops
		ops = append(ops, trace.Touch{Addr: vm.Addr(i * 512)})
	}
	pr.Program = &trace.Program{Ops: ops}
	tb.Src.Start(pr)

	var rows []HopPenaltyRow
	var runErr error
	var hopper *machine.Process // the hopper where it last arrived
	iou := core.Options{Strategy: core.PureIOU}
	tb.K.Go("driver", func(p *sim.Proc) {
		if _, runErr = tb.SrcMgr.MigrateTo(p, "hopper", tb.DstMgr.Port.ID, iou); runErr != nil {
			return
		}
		tb.FirePhase(p, "remote")
		hopper, _ = tb.Dst.Process("hopper")
		hopper.AtMigrate.Wait(p) // 16 one-hop faults done
		rows = append(rows, HopPenaltyRow{Hops: 1, FaultMean: tb.Rec.RemoteFaults().Mean()})
		if _, runErr = tb.DstMgr.MigrateTo(p, "hopper", farMgr.Port.ID, iou); runErr != nil {
			return
		}
		hopper, _ = far.Process("hopper")
		if hopper.WaitDone(p) == nil {
			rows = append(rows, HopPenaltyRow{Hops: 2, FaultMean: farRec.RemoteFaults().Mean()})
		}
	})
	tb.K.Run()
	switch {
	case runErr != nil:
		return nil, runErr
	case len(rows) == 2:
		return rows, nil
	case hopper != nil && hopper.ExecError != nil:
		return nil, fmt.Errorf("experiments: hopper remote execution: %w", hopper.ExecError)
	}
	return nil, fmt.Errorf("experiments: hopper trial never completed")
}

// FormatHopPenalty renders the hop comparison.
func FormatHopPenalty(rows []HopPenaltyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Backer distance: mean imaginary-fault latency by relay hops\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %d hop(s): %6.1f ms\n", r.Hops, r.FaultMean.Seconds()*1000)
	}
	if len(rows) == 2 && rows[0].FaultMean > 0 {
		fmt.Fprintf(&b, "  penalty: %.2fx — why the balancer avoids re-migrating dispersed processes\n",
			float64(rows[1].FaultMean)/float64(rows[0].FaultMean))
	}
	return b.String()
}
