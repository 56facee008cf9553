package accentmig

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

// The benchmarks regenerate every table and figure of the paper's
// evaluation. Each op is a full simulated trial (or table sweep); the
// interesting output is the custom metrics: sim-seconds of virtual
// time, bytes on the simulated wire, and so on — absolute wall time
// only measures the simulator itself.

// regenerate drops the default engine's memo with the timer stopped,
// so the op that follows rebuilds its table from simulation instead of
// timing memo hits of the previous op.
func regenerate(b *testing.B) {
	b.StopTimer()
	experiments.Default.Reset()
	b.StartTimer()
}

func reportTrial(b *testing.B, tr *experiments.TrialResult) {
	b.ReportMetric(tr.Report.RIMASTransfer.Seconds(), "sim-xfer-s")
	b.ReportMetric(tr.RemoteExec.Seconds(), "sim-exec-s")
	b.ReportMetric(float64(tr.BytesTotal), "sim-bytes")
	b.ReportMetric(tr.MsgTime.Seconds(), "sim-msg-s")
}

// BenchmarkTable41 regenerates the address-space composition table.
func BenchmarkTable41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		rows, err := experiments.Table41(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable41(rows))
		}
	}
}

// BenchmarkTable42 regenerates the resident-set table.
func BenchmarkTable42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		rows, err := experiments.Table42(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable42(rows))
		}
	}
}

// BenchmarkTable43 regenerates the percent-of-space-accessed table.
func BenchmarkTable43(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		rows, err := experiments.Table43(experiments.Config{}, workload.Kinds())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable43(rows))
		}
	}
}

// BenchmarkTable44 regenerates the excision/insertion timing table.
func BenchmarkTable44(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		rows, err := experiments.Table44(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable44(rows))
		}
	}
}

// BenchmarkTable45 regenerates the address-space transfer time table.
func BenchmarkTable45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		rows, err := experiments.Table45(experiments.Config{}, workload.Kinds())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatTable45(rows))
		}
	}
}

// benchGridCell runs one (workload, strategy, prefetch) trial per op.
func benchGridCell(b *testing.B, k workload.Kind, s core.Strategy, pf int) {
	b.Helper()
	var last *experiments.TrialResult
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunTrial(experiments.Config{}, k, s, pf)
		if err != nil {
			b.Fatal(err)
		}
		last = tr
	}
	reportTrial(b, last)
}

// figureGrid drives the shared sweep behind Figures 4-1 through 4-4:
// sub-benchmarks per workload × strategy × prefetch.
func figureGrid(b *testing.B) {
	for _, k := range workload.Kinds() {
		k := k
		b.Run(k.String()+"/Copy", func(b *testing.B) { benchGridCell(b, k, core.PureCopy, 0) })
		for _, pf := range core.PrefetchValues() {
			pf := pf
			b.Run(benchName(k, core.PureIOU, pf), func(b *testing.B) { benchGridCell(b, k, core.PureIOU, pf) })
			b.Run(benchName(k, core.ResidentSet, pf), func(b *testing.B) { benchGridCell(b, k, core.ResidentSet, pf) })
		}
	}
}

func benchName(k workload.Kind, s core.Strategy, pf int) string {
	return k.String() + "/" + s.String() + "-PF" + itoa(pf)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFigure41 regenerates remote execution times (per cell, see
// sim-exec-s).
func BenchmarkFigure41(b *testing.B) { figureGrid(b) }

// BenchmarkFigure42 regenerates the end-to-end speedup comparison: one
// op runs the full grid for one workload and reports the PF0 IOU
// speedup over pure-copy.
func BenchmarkFigure42(b *testing.B) {
	for _, k := range workload.Kinds() {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cp, err := experiments.RunTrial(experiments.Config{}, k, core.PureCopy, 0)
				if err != nil {
					b.Fatal(err)
				}
				iou, err := experiments.RunTrial(experiments.Config{}, k, core.PureIOU, 0)
				if err != nil {
					b.Fatal(err)
				}
				speedup = 100 * (cp.EndToEnd.Seconds() - iou.EndToEnd.Seconds()) / cp.EndToEnd.Seconds()
			}
			b.ReportMetric(speedup, "speedup-pct")
		})
	}
}

// BenchmarkFigure43 regenerates bytes-transferred per cell (sim-bytes).
func BenchmarkFigure43(b *testing.B) {
	for _, k := range workload.Kinds() {
		k := k
		for _, s := range core.Strategies() {
			s := s
			b.Run(k.String()+"/"+s.String(), func(b *testing.B) { benchGridCell(b, k, s, 0) })
		}
	}
}

// BenchmarkFigure44 regenerates message-handling costs (sim-msg-s).
func BenchmarkFigure44(b *testing.B) {
	for _, k := range workload.Kinds() {
		k := k
		for _, s := range core.Strategies() {
			s := s
			b.Run(k.String()+"/"+s.String(), func(b *testing.B) { benchGridCell(b, k, s, 0) })
		}
	}
}

// BenchmarkFigure45 regenerates the Lisp-Del byte-rate panels.
func BenchmarkFigure45(b *testing.B) {
	var panels []experiments.Figure45Panel
	for i := 0; i < b.N; i++ {
		regenerate(b)
		var err error
		panels, err = experiments.Figure45(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(panels) == 3 {
		b.ReportMetric(panels[0].Total.Seconds(), "sim-iou-total-s")
		b.ReportMetric(panels[2].Total.Seconds(), "sim-copy-total-s")
	}
}

// BenchmarkGridSweepSeq runs the full three-workload grid strictly
// sequentially with no cache — the reference cost of one sweep.
func BenchmarkGridSweepSeq(b *testing.B) {
	kinds := []workload.Kind{workload.Minprog, workload.LispDel, workload.Chess}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGridSeq(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSweepEngine runs the same grid through the trial engine
// (worker pool, cold cache each op) for a like-for-like comparison
// with BenchmarkGridSweepSeq.
func BenchmarkGridSweepEngine(b *testing.B) {
	kinds := []workload.Kind{workload.Minprog, workload.LispDel, workload.Chess}
	e := experiments.NewEngine(0)
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.RunGrid(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSpeedup times the seven-workload grid sequentially, then
// through a fresh four-worker engine, and reports the speedup. Four
// workers contend for the cores even on a host with fewer. On a host
// with more than one CPU an engine with more than one worker must beat
// the sequential sweep. The check is a wall-clock ratio, so only `make
// bench` runs it.
func BenchmarkGridSpeedup(b *testing.B) {
	kinds := workload.Kinds()
	var seq, par time.Duration
	var workers int
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := experiments.RunGridSeq(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
		seq += time.Since(start)
		e := experiments.NewEngine(4)
		workers = e.Workers()
		start = time.Now()
		if _, err := e.RunGrid(experiments.Config{}, kinds); err != nil {
			b.Fatal(err)
		}
		par += time.Since(start)
	}
	speedup := seq.Seconds() / par.Seconds()
	b.ReportMetric(seq.Seconds()*1e3/float64(b.N), "seq-ms")
	b.ReportMetric(par.Seconds()*1e3/float64(b.N), "engine-ms")
	b.ReportMetric(speedup, "speedup")
	if runtime.NumCPU() > 1 && workers > 1 && speedup <= 1 {
		b.Errorf("grid speedup %.2fx <= 1 on a %d-core host (%d workers): parallel engine regressed",
			speedup, runtime.NumCPU(), workers)
	}
}

// BenchmarkShardSweep runs the 32-machine shard-stress scenario at 1,
// 2, 4 and 8 lanes and reports each sharded count's speedup over the
// sequential kernel. A sharded result that differs from the sequential
// one fails it: a fast kernel that computes something else is
// worthless. On a host with more than one CPU every count of four or
// more lanes must be at least twice as fast. Like BenchmarkGridSpeedup
// it is a wall-clock check that only `make bench` runs.
func BenchmarkShardSweep(b *testing.B) {
	lanes := []int{1, 2, 4, 8} // one lane is the sequential kernel
	wall := make([]time.Duration, len(lanes))
	for i := 0; i < b.N; i++ {
		var seq *experiments.ShardStressResult
		for j, n := range lanes {
			res, perf, err := experiments.RunShardStress(experiments.ShardStressOptions{Machines: 32, Shards: n})
			if err != nil {
				b.Fatal(err)
			}
			if n == 1 {
				seq = res
			} else if !reflect.DeepEqual(res, seq) {
				b.Fatalf("%d-lane result differs from the sequential kernel's", n)
			}
			wall[j] += perf.Wall
		}
	}
	for j := 1; j < len(lanes); j++ {
		speedup := wall[0].Seconds() / wall[j].Seconds()
		b.ReportMetric(speedup, fmt.Sprintf("lanes%d-speedup", lanes[j]))
		if runtime.NumCPU() > 1 && lanes[j] >= 4 && speedup < 2 {
			b.Errorf("%.2fx speedup at %d lanes on a %d-core host, want >= 2x",
				speedup, lanes[j], runtime.NumCPU())
		}
	}
}

// BenchmarkSummary regenerates the §4.5 aggregates.
func BenchmarkSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		regenerate(b)
		g, err := experiments.RunGrid(experiments.Config{}, []workload.Kind{
			workload.Minprog, workload.LispDel, workload.Chess,
		})
		if err != nil {
			b.Fatal(err)
		}
		s, err := experiments.Summarize(experiments.Config{}, g, []workload.Kind{
			workload.Minprog, workload.LispDel, workload.Chess,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.AvgByteSavingsPct, "byte-savings-pct")
		b.ReportMetric(s.AvgMsgTimeSavingsPct, "msg-savings-pct")
		b.ReportMetric(s.FaultRatio, "fault-ratio")
	}
}

// BenchmarkAblationPrefetch sweeps prefetch on a sequential workload.
func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PrefetchAblation(core.PrefetchValues())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Prefetch sweep (synthetic sequential)", rows))
		}
	}
}

// BenchmarkAblationPageSize sweeps the VM page size.
func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PageSizeAblation([]int{256, 512, 1024, 2048})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Page-size sweep", rows))
		}
	}
}

// BenchmarkAblationBandwidth finds where pure-copy overtakes IOU as
// the network speeds up.
func BenchmarkAblationBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BandwidthAblation([]int{375_000, 3_750_000, 37_500_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("Bandwidth sweep (IOU vs Copy)", rows))
		}
	}
}

// BenchmarkAblationIOUCache shows the NetMsgServer cache is what makes
// lazy shipment possible.
func BenchmarkAblationIOUCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IOUCacheAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("IOU cache on/off", rows))
		}
	}
}

// BenchmarkAblationCopyThreshold sweeps the IPC copy/map threshold.
func BenchmarkAblationCopyThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CopyThresholdAblation([]int{512, 4096, 65536, 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatAblation("IPC copy/map threshold sweep", rows))
		}
	}
}

// BenchmarkPreCopy compares the V-system iterative pre-copy against
// stop-and-copy and copy-on-reference on a writer workload, reporting
// downtimes.
func BenchmarkPreCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PreCopyComparison(experiments.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatPreCopy(rows))
		}
		b.ReportMetric(rows[0].Downtime.Seconds(), "sim-precopy-down-s")
		b.ReportMetric(rows[1].Downtime.Seconds(), "sim-copy-down-s")
		b.ReportMetric(rows[2].Downtime.Seconds(), "sim-iou-down-s")
	}
}

// BenchmarkBreakeven sweeps the touched fraction to locate the IOU/copy
// crossover (§4.3.4: ≈¼ of RealMem).
func BenchmarkBreakeven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.BreakevenSweep(experiments.Config{}, []int{5, 15, 25, 40, 60})
		if err != nil {
			b.Fatal(err)
		}
		if be := experiments.Breakeven(rows); be > 0 {
			b.ReportMetric(be, "breakeven-pct")
		}
		if i == 0 {
			b.Log("\n" + experiments.FormatBreakeven(rows))
		}
	}
}
