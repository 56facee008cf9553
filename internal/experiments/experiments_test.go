package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/workload"
)

// The full grid is expensive enough to share across tests.
var (
	gridOnce sync.Once
	gridVal  *Grid
	gridErr  error
)

func sharedGrid(t *testing.T) *Grid {
	t.Helper()
	gridOnce.Do(func() {
		gridVal, gridErr = RunGrid(Config{}, workload.Kinds())
	})
	if gridErr != nil {
		t.Fatal(gridErr)
	}
	return gridVal
}

// TestTable41ExactPaperMatch: each printed Table 4-1 row is what an
// install of its representative measures, so the characterization
// Build checks every install against is the one the table prints.
func TestTable41ExactPaperMatch(t *testing.T) {
	rows, err := Table41(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.Kinds()) {
		t.Fatalf("%d rows, want one per kind", len(rows))
	}
	for _, r := range rows {
		tb := NewTestbed(Config{})
		b, err := workload.Build(tb.Src, r.Kind)
		if err != nil {
			t.Fatal(err)
		}
		u := b.Proc.AS.Usage()
		tb.K.Close()
		if r.Real != u.Real || r.RealZ != u.RealZero || r.Total != u.Total {
			t.Errorf("%v: row Real/RealZ/Total = %d/%d/%d, install %d/%d/%d",
				r.Kind, r.Real, r.RealZ, r.Total, u.Real, u.RealZero, u.Total)
		}
		if want := 100 * float64(u.RealZero) / float64(u.Total); r.PctRealZ != want {
			t.Errorf("%v: %%RealZ = %v, install %v", r.Kind, r.PctRealZ, want)
		}
	}
}

func TestTable42ExactPaperMatch(t *testing.T) {
	rows, err := Table42(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := workload.PaperResidentPct
	for _, r := range rows {
		p := workload.PaperNumbers(r.Kind)
		if r.RSSize != p.ResidentBytes {
			t.Errorf("%v: RS size = %d, paper %d", r.Kind, r.RSSize, p.ResidentBytes)
		}
		w := want[r.Kind]
		if math.Abs(r.PctReal-w[0]) > 0.5 {
			t.Errorf("%v: %%Real = %.1f, paper %.1f", r.Kind, r.PctReal, w[0])
		}
		if math.Abs(r.PctTotal-w[1]) > 0.5 {
			t.Errorf("%v: %%Total = %.3f, paper %.3f", r.Kind, r.PctTotal, w[1])
		}
	}
}

func TestTable43IOUNearPaper(t *testing.T) {
	want := workload.PaperTable43IOU
	rows, err := Table43(Config{}, workload.Kinds())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.IOUReal-want[r.Kind]) > 2.0 {
			t.Errorf("%v: IOU %%Real = %.1f, paper %.1f", r.Kind, r.IOUReal, want[r.Kind])
		}
		if r.RSReal < r.IOUReal-0.5 {
			t.Errorf("%v: RS (%.1f) moved less than IOU (%.1f)", r.Kind, r.RSReal, r.IOUReal)
		}
	}
}

func TestTable44Shape(t *testing.T) {
	rows, err := Table44(Config{})
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[workload.Kind]Row44{}
	var minOverall, maxOverall time.Duration = time.Hour, 0
	var minInsert, maxInsert time.Duration = time.Hour, 0
	for _, r := range rows {
		byKind[r.Kind] = r
		if r.Overall < minOverall {
			minOverall = r.Overall
		}
		if r.Overall > maxOverall {
			maxOverall = r.Overall
		}
		if r.Insert < minInsert {
			minInsert = r.Insert
		}
		if r.Insert > maxInsert {
			maxInsert = r.Insert
		}
		if r.Overall < r.AMap+r.RIMAS {
			t.Errorf("%v: Overall < AMap+RIMAS", r.Kind)
		}
	}
	// Lisp processes take the longest; Minprog and Chess the shortest.
	for _, k := range []workload.Kind{workload.Minprog, workload.Chess} {
		if byKind[k].AMap >= byKind[workload.LispT].AMap {
			t.Errorf("%v AMap (%v) not below Lisp-T (%v)", k, byKind[k].AMap, byKind[workload.LispT].AMap)
		}
	}
	// Excision varies by a small factor (paper: 4) despite 4 orders of
	// magnitude in address space.
	if ratio := float64(maxOverall) / float64(minOverall); ratio > 8 {
		t.Errorf("excision spread = %.1f, want < 8 (paper 4)", ratio)
	}
	// Insertion spread (paper: 3.3).
	if ratio := float64(maxInsert) / float64(minInsert); ratio > 8 {
		t.Errorf("insertion spread = %.1f, want < 8 (paper 3.3)", ratio)
	}
	// Absolute bands: sub-second to a few seconds.
	if minOverall < 300*time.Millisecond || maxOverall > 6*time.Second {
		t.Errorf("excision range [%v, %v] out of band", minOverall, maxOverall)
	}
}

func TestTable45Shape(t *testing.T) {
	rows, err := Table45(Config{}, workload.Kinds())
	if err != nil {
		t.Fatal(err)
	}
	var iouMin, iouMax time.Duration = time.Hour, 0
	var copyMin, copyMax time.Duration = time.Hour, 0
	for _, r := range rows {
		if r.IOU < iouMin {
			iouMin = r.IOU
		}
		if r.IOU > iouMax {
			iouMax = r.IOU
		}
		if r.Copy < copyMin {
			copyMin = r.Copy
		}
		if r.Copy > copyMax {
			copyMax = r.Copy
		}
		// RS sits between IOU and copy.
		if !(r.IOU < r.RS && r.RS < r.Copy) {
			t.Errorf("%v: ordering IOU(%v) < RS(%v) < Copy(%v) violated", r.Kind, r.IOU, r.RS, r.Copy)
		}
		// The Core message is ≈1 s in all cases.
		if r.Core < 700*time.Millisecond || r.Core > 2*time.Second {
			t.Errorf("%v: Core transfer %v, want ≈1s", r.Kind, r.Core)
		}
		// Lisp copy is several hundred times its IOU transfer (paper:
		// almost 1000x for Lisp-Del).
		if r.Kind == workload.LispDel && r.Copy < 300*r.IOU {
			t.Errorf("Lisp-Del copy/IOU = %.0f, want > 300 (paper ≈1000)", float64(r.Copy)/float64(r.IOU))
		}
	}
	// IOU transfers are nearly independent of size (paper: 0.15-0.21 s).
	if ratio := float64(iouMax) / float64(iouMin); ratio > 10 {
		t.Errorf("IOU transfer spread = %.1f, want small", ratio)
	}
	if iouMax > time.Second {
		t.Errorf("IOU transfer up to %v, want sub-second", iouMax)
	}
	// Copy transfers vary by over an order of magnitude (paper: 20x).
	if ratio := float64(copyMax) / float64(copyMin); ratio < 10 {
		t.Errorf("copy transfer spread = %.1f, want > 10 (paper 20)", ratio)
	}
}

func TestFigure41Shape(t *testing.T) {
	g := sharedGrid(t)
	// Minprog executes drastically slower under pure-IOU (paper: 44x).
	mc := g.Cell(workload.Minprog, core.PureCopy, 0).RemoteExec
	mi := g.Cell(workload.Minprog, core.PureIOU, 0).RemoteExec
	if ratio := float64(mi) / float64(mc); ratio < 10 {
		t.Errorf("Minprog IOU/copy exec ratio = %.0f, want > 10 (paper 44)", ratio)
	}
	// Chess barely notices (paper: ≈3% longer).
	cc := g.Cell(workload.Chess, core.PureCopy, 0).RemoteExec
	ci := g.Cell(workload.Chess, core.PureIOU, 0).RemoteExec
	if pct := 100 * (float64(ci) - float64(cc)) / float64(cc); pct > 10 || pct < 0 {
		t.Errorf("Chess IOU exec penalty = %.1f%%, want ≈3%%", pct)
	}
	// Pasmac improves by up to ~2x across the prefetch range.
	p0 := g.Cell(workload.PMStart, core.PureIOU, 0).RemoteExec
	p15 := g.Cell(workload.PMStart, core.PureIOU, 15).RemoteExec
	if ratio := float64(p0) / float64(p15); ratio < 1.5 {
		t.Errorf("PM-Start PF0/PF15 exec ratio = %.2f, want > 1.5 (paper ≈2)", ratio)
	}
	// RS only matters for the very short-lived programs.
	lr := g.Cell(workload.LispT, core.ResidentSet, 0).RemoteExec
	li := g.Cell(workload.LispT, core.PureIOU, 0).RemoteExec
	if lr >= li {
		t.Errorf("Lisp-T RS exec (%v) not below IOU (%v)", lr, li)
	}
}

func TestFigure42Shape(t *testing.T) {
	g := sharedGrid(t)
	kinds := workload.Kinds()
	f := Figure42(g, kinds)
	speedup := func(k workload.Kind, s core.Strategy, pf int) float64 {
		for _, c := range f[k] {
			if c.Strategy == s && c.Prefetch == pf {
				return c.Value
			}
		}
		t.Fatalf("missing cell %v/%v/PF%d", k, s, pf)
		return 0
	}
	// Small-touch processes win big under IOU.
	if v := speedup(workload.LispT, core.PureIOU, 0); v < 80 {
		t.Errorf("Lisp-T IOU speedup = %.0f%%, want > 80%%", v)
	}
	if v := speedup(workload.Minprog, core.PureIOU, 0); v < 30 {
		t.Errorf("Minprog IOU speedup = %.0f%%, want > 30%%", v)
	}
	// Past the breakeven (~1/4 of RealMem touched), Pasmac slows down
	// at PF0 but prefetch rescues it (paper: -21% -> +44% trend).
	if v := speedup(workload.PMStart, core.PureIOU, 0); v > -10 {
		t.Errorf("PM-Start IOU PF0 speedup = %.0f%%, want clear slowdown", v)
	}
	if v0, v15 := speedup(workload.PMStart, core.PureIOU, 0), speedup(workload.PMStart, core.PureIOU, 15); v15 <= v0 {
		t.Errorf("PM-Start prefetch did not help: PF0 %.0f%% vs PF15 %.0f%%", v0, v15)
	}
	// PM-End sits near the breakeven and comes out ahead.
	if v := speedup(workload.PMEnd, core.PureIOU, 0); v < 0 || v > 50 {
		t.Errorf("PM-End IOU PF0 speedup = %.0f%%, want modest positive", v)
	}
	// Chess is insensitive to the transfer method.
	for _, s := range []core.Strategy{core.PureIOU, core.ResidentSet} {
		if v := speedup(workload.Chess, s, 0); math.Abs(v) > 5 {
			t.Errorf("Chess %v speedup = %.1f%%, want ≈0", s, v)
		}
	}
	// One page of prefetch improves on PF0 in (almost) all cases; the
	// paper states it always helps end-to-end.
	for _, k := range []workload.Kind{workload.PMStart, workload.PMMid, workload.PMEnd, workload.LispDel} {
		if v0, v1 := speedup(k, core.PureIOU, 0), speedup(k, core.PureIOU, 1); v1 < v0-1 {
			t.Errorf("%v: PF1 (%.1f%%) worse than PF0 (%.1f%%)", k, v1, v0)
		}
	}
}

func TestFigure43Shape(t *testing.T) {
	g := sharedGrid(t)
	for _, k := range workload.Kinds() {
		cp := g.Cell(k, core.PureCopy, 0).BytesTotal
		iou := g.Cell(k, core.PureIOU, 0).BytesTotal
		rs := g.Cell(k, core.ResidentSet, 0).BytesTotal
		if !(iou < cp) {
			t.Errorf("%v: IOU bytes (%d) not below copy (%d)", k, iou, cp)
		}
		// Shipping resident sets cuts into the IOU savings — except
		// when residency is an excellent touch predictor, as for
		// Lisp-Del where 90% of the shipped resident set is used and
		// bulk framing beats per-fault overhead.
		if k != workload.LispDel && !(iou <= rs) {
			t.Errorf("%v: RS bytes (%d) below IOU (%d)", k, rs, iou)
		}
		// More prefetch, more bytes (dead weight): sharply true for the
		// no-locality Lisp family; sequential programs use almost all
		// prefetched pages, so their totals stay about flat.
		b0 := g.Cell(k, core.PureIOU, 0).BytesTotal
		b15 := g.Cell(k, core.PureIOU, 15).BytesTotal
		switch k {
		case workload.LispT, workload.LispDel:
			if b15 < 2*b0 {
				t.Errorf("%v: PF15 bytes (%d) not well above PF0 (%d)", k, b15, b0)
			}
		default:
			if float64(b15) < 0.85*float64(b0) {
				t.Errorf("%v: PF15 bytes (%d) far below PF0 (%d)", k, b15, b0)
			}
		}
	}
}

func TestFigure44IOUAlwaysWins(t *testing.T) {
	// §4.4.2: "In every case, the IOU and resident set strategies
	// outperform pure-copy" on message-handling time.
	g := sharedGrid(t)
	for _, k := range workload.Kinds() {
		cp := g.Cell(k, core.PureCopy, 0).MsgTime
		for _, s := range []core.Strategy{core.PureIOU, core.ResidentSet} {
			if mt := g.Cell(k, s, 0).MsgTime; mt >= cp {
				t.Errorf("%v: %v msg time (%v) not below copy (%v)", k, s, mt, cp)
			}
		}
	}
}

func TestFigure45Shape(t *testing.T) {
	panels, err := Figure45(Config{})
	if err != nil {
		t.Fatal(err)
	}
	byStrat := map[core.Strategy]Figure45Panel{}
	for _, p := range panels {
		byStrat[p.Strategy] = p
	}
	cp := byStrat[core.PureCopy]
	iou := byStrat[core.PureIOU]
	// Copy has its characteristic early bulk signature: essentially all
	// bytes move before remote execution begins, none fault-related.
	var early, total, fault uint64
	for _, pt := range cp.Series {
		total += pt.Bytes
		fault += pt.FaultBytes
		if pt.T < cp.ExecStart {
			early += pt.Bytes
		}
	}
	if float64(early) < 0.95*float64(total) {
		t.Errorf("copy: only %.0f%% of bytes in the transfer phase", 100*float64(early)/float64(total))
	}
	if fault != 0 {
		t.Errorf("copy: %d fault-support bytes, want 0", fault)
	}
	// IOU traffic is dominated by fault support, spread over the run.
	var iouFault, iouTotal uint64
	for _, pt := range iou.Series {
		iouTotal += pt.Bytes
		iouFault += pt.FaultBytes
	}
	if float64(iouFault) < 0.7*float64(iouTotal) {
		t.Errorf("IOU: fault bytes only %.0f%% of traffic", 100*float64(iouFault)/float64(iouTotal))
	}
	// The dramatic §4.4.3 observation: Lisp-Del under IOU finishes its
	// work around when the full-copy trial is still transferring.
	if iou.Total > cp.Total {
		t.Errorf("IOU total (%v) not below copy total (%v)", iou.Total, cp.Total)
	}
}

func TestSummaryBands(t *testing.T) {
	g := sharedGrid(t)
	s, err := Summarize(Config{}, g, workload.Kinds())
	if err != nil {
		t.Fatal(err)
	}
	if s.AvgByteSavingsPct < 45 || s.AvgByteSavingsPct > 70 {
		t.Errorf("byte savings = %.1f%%, paper 58.2%%", s.AvgByteSavingsPct)
	}
	if s.AvgMsgTimeSavingsPct < 35 || s.AvgMsgTimeSavingsPct > 70 {
		t.Errorf("msg-time savings = %.1f%%, paper 47.8%%", s.AvgMsgTimeSavingsPct)
	}
	if s.FaultRatio < 2.2 || s.FaultRatio > 3.5 {
		t.Errorf("fault ratio = %.2f, paper 2.8", s.FaultRatio)
	}
	if s.RemoteFault < 90*time.Millisecond || s.RemoteFault > 140*time.Millisecond {
		t.Errorf("remote fault = %v, paper 115ms", s.RemoteFault)
	}
	if s.DiskFault < 30*time.Millisecond || s.DiskFault > 50*time.Millisecond {
		t.Errorf("disk fault = %v, paper 40.8ms", s.DiskFault)
	}
	if s.PeakRateReductionPct < 20 {
		t.Errorf("peak-rate reduction = %.1f%%, paper up to 66%%", s.PeakRateReductionPct)
	}
}

func TestPrefetchHitRatios(t *testing.T) {
	g := sharedGrid(t)
	// Pasmac sustains a high hit ratio across prefetch values (paper:
	// a steady 78%).
	for _, pf := range []int{1, 3, 7, 15} {
		hr := g.Cell(workload.PMStart, core.PureIOU, pf).DestPager.HitRatio()
		if hr < 0.55 {
			t.Errorf("PM-Start PF%d hit ratio = %.2f, want high (paper 0.78)", pf, hr)
		}
	}
	// Lisp's hit ratio falls as prefetch grows (paper: ~40% -> ~20%).
	h1 := g.Cell(workload.LispDel, core.PureIOU, 1).DestPager.HitRatio()
	h15 := g.Cell(workload.LispDel, core.PureIOU, 15).DestPager.HitRatio()
	if h1 < 0.25 {
		t.Errorf("Lisp-Del PF1 hit ratio = %.2f, want ≈0.4", h1)
	}
	if h15 >= h1 {
		t.Errorf("Lisp-Del hit ratio did not fall with prefetch: PF1 %.2f vs PF15 %.2f", h1, h15)
	}
}

func TestResidualDependencyShrinksWithPrefetch(t *testing.T) {
	g := sharedGrid(t)
	r0 := g.Cell(workload.LispT, core.PureIOU, 0).ResidualPages
	r15 := g.Cell(workload.LispT, core.PureIOU, 15).ResidualPages
	if r0 == 0 {
		t.Fatal("no residual dependency under IOU")
	}
	if r15 >= r0 {
		t.Errorf("prefetch did not shrink the residual: PF0 %d vs PF15 %d", r0, r15)
	}
}

func TestTrialDeterminism(t *testing.T) {
	a, err := RunTrial(Config{}, workload.Minprog, core.PureIOU, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrial(Config{}, workload.Minprog, core.PureIOU, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.RemoteExec != b.RemoteExec || a.BytesTotal != b.BytesTotal || a.MsgTime != b.MsgTime {
		t.Errorf("trials diverge: %+v vs %+v", a, b)
	}
}

// TestObservedFaultLatenciesInTrials: the in-trial fault latencies
// match the paper's anchors — not just the isolated microbenchmark.
func TestObservedFaultLatenciesInTrials(t *testing.T) {
	g := sharedGrid(t)
	iou := g.Cell(workload.LispT, core.PureIOU, 0)
	if iou.RemoteFaultMean < 90*time.Millisecond || iou.RemoteFaultMean > 140*time.Millisecond {
		t.Errorf("in-trial remote fault mean = %v, want ≈115ms", iou.RemoteFaultMean)
	}
	cp := g.Cell(workload.LispT, core.PureCopy, 0)
	if cp.DiskFaultMean < 30*time.Millisecond || cp.DiskFaultMean > 60*time.Millisecond {
		t.Errorf("in-trial disk fault mean = %v, want ≈40.8ms", cp.DiskFaultMean)
	}
	if cp.RemoteFaultMean != 0 {
		t.Errorf("pure-copy trial had remote faults (mean %v)", cp.RemoteFaultMean)
	}
}

func TestFormatFigureCSV(t *testing.T) {
	g := sharedGrid(t)
	kinds := []workload.Kind{workload.Minprog}
	csv := FormatFigureCSV(Figure41(g, kinds), kinds)
	if !strings.HasPrefix(csv, "workload,strategy,prefetch,value\n") {
		t.Error("missing CSV header")
	}
	if !strings.Contains(csv, "Minprog,Copy,0,") || !strings.Contains(csv, "Minprog,IOU,15,") {
		t.Errorf("rows missing:\n%s", csv)
	}
	if got := strings.Count(csv, "\n"); got != 12 {
		t.Errorf("CSV lines = %d, want 12 (header + 11 cells)", got)
	}
}

// TestGridDeterminism runs the full grid twice and requires identical
// measurements everywhere — the whole evaluation is reproducible
// bit-for-bit.
func TestGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full grids")
	}
	kinds := []workload.Kind{workload.Minprog, workload.PMStart}
	a, err := RunGrid(Config{}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGrid(Config{}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	for key, ta := range a.Cells {
		tb := b.Cells[key]
		if tb == nil {
			t.Fatalf("cell %v missing on rerun", key)
		}
		if ta.RemoteExec != tb.RemoteExec || ta.BytesTotal != tb.BytesTotal ||
			ta.MsgTime != tb.MsgTime || ta.Report.RIMASTransfer != tb.Report.RIMASTransfer ||
			ta.DestPager != tb.DestPager {
			t.Errorf("cell %v diverges between runs", key)
		}
	}
}
