package experiments

import (
	"fmt"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// PreCopyRow compares one transfer scheme on the writer workload.
type PreCopyRow struct {
	Label    string
	Downtime time.Duration // process stopped → resumed at destination
	Total    time.Duration // scheme start → resumed at destination
	Bytes    uint64
}

// FormatPreCopy renders the comparison.
func FormatPreCopy(rows []PreCopyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pre-copy (V-system, §5) vs stop-and-copy vs copy-on-reference\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %12s\n", "", "downtime", "total", "wire bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.2fs %9.2fs %12d\n",
			r.Label, r.Downtime.Seconds(), r.Total.Seconds(), r.Bytes)
	}
	return b.String()
}

// preCopyTestbed builds a writer process: `pages` pages of data, a long
// program that keeps dirtying a hot window.
func preCopyTestbed(cfg Config, pages, hot, bursts int) (*Testbed, error) {
	tb := NewTestbed(cfg)
	pr, err := tb.dataProcess("writer", 1, pages, func(i int, page []byte) {
		for j := range page {
			page[j] = byte(i * j)
		}
	})
	if err != nil {
		return nil, err
	}
	var ops []trace.Op
	for b := 0; b < bursts; b++ {
		ops = append(ops,
			trace.Compute{D: 100 * time.Millisecond},
			trace.Touch{Addr: vm.Addr(512 * (b % hot)), Write: true},
		)
	}
	pr.Program = &trace.Program{Ops: ops}
	tb.Src.Start(pr)
	return tb, nil
}

// PreCopyComparison contrasts the three downtime disciplines on a
// 128-page writer: iterative pre-copy, stop-and-pure-copy, and
// stop-and-IOU (copy-on-reference). Downtime for the IOU case ends at
// resume, but its cost continues across the remote lifetime — exactly
// the structural difference §5 discusses.
func PreCopyComparison(cfg Config) ([]PreCopyRow, error) {
	var rows []PreCopyRow

	// Iterative pre-copy.
	tb, err := preCopyTestbed(cfg, 128, 16, 2000)
	if err != nil {
		return nil, err
	}
	defer tb.K.Close()
	var rep *core.PreCopyReport
	m := &migration{}
	tb.K.Go("driver", func(p *sim.Proc) {
		p.Sleep(time.Second)
		rep, m.err = tb.SrcMgr.PreCopyTo(p, "writer", tb.DstMgr.Port.ID)
		tb.settle(p, m, "writer")
	})
	tb.K.RunUntil(30 * time.Minute)
	if m.err != nil {
		return nil, m.err
	}
	if rep == nil || rep.ProcCompleted {
		return nil, fmt.Errorf("experiments: pre-copy trial did not migrate")
	}
	if err := m.remoteErr("writer"); err != nil {
		return nil, err
	}
	rows = append(rows, PreCopyRow{
		Label:    fmt.Sprintf("precopy(x%d)", len(rep.Rounds)),
		Downtime: rep.Downtime,
		Total:    rep.Total,
		Bytes:    tb.Link.Bytes(),
	})

	// Stop-and-transfer under pure copy and pure IOU.
	for _, strat := range []core.Strategy{core.PureCopy, core.PureIOU} {
		tb, err := preCopyTestbed(cfg, 128, 16, 2000)
		if err != nil {
			return nil, err
		}
		defer tb.K.Close()
		var down, total time.Duration
		var stopErr error
		m := &migration{}
		tb.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(time.Second)
			start := p.Now()
			pr, _ := tb.Src.Process("writer")
			tb.Src.RequestPreempt(pr)
			if !tb.Src.WaitStopped(p, pr) {
				stopErr = fmt.Errorf("experiments: writer finished before stop")
				return
			}
			downStart := p.Now()
			m.rep, m.err = tb.SrcMgr.MigrateTo(p, "writer", tb.DstMgr.Port.ID, core.Options{Strategy: strat})
			if m.err == nil {
				down = m.rep.InsertDoneAt - downStart
				total = m.rep.InsertDoneAt - start
			}
			tb.settle(p, m, "writer")
		})
		tb.K.RunUntil(30 * time.Minute)
		if stopErr != nil {
			return nil, stopErr
		}
		if err := m.remoteErr("writer"); err != nil {
			return nil, err
		}
		rows = append(rows, PreCopyRow{
			Label:    "stop+" + strat.String(),
			Downtime: down,
			Total:    total,
			Bytes:    tb.Link.Bytes(),
		})
	}
	return rows, nil
}
