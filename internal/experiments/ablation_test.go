package experiments

import (
	"errors"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/pager"
	"accentmig/internal/workload"
)

func TestPageSizeAblation(t *testing.T) {
	rows, err := PageSizeAblation(Config{}, []int{256, 512, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Smaller pages mean more faults: remote execution is slowest at
	// 256B pages for a fixed byte volume and touch fraction.
	if rows[0].RemoteExec <= rows[2].RemoteExec {
		t.Errorf("256B exec (%v) not above 2048B exec (%v)", rows[0].RemoteExec, rows[2].RemoteExec)
	}
}

func TestBandwidthAblation(t *testing.T) {
	rows, err := BandwidthAblation(Config{}, []int{375_000, 37_500_000})
	if err != nil {
		t.Fatal(err)
	}
	// rows: [slow/IOU slow/Copy fast/IOU fast/Copy]
	slowIOU, slowCopy := rows[0], rows[1]
	fastIOU, fastCopy := rows[2], rows[3]
	// On the period Ethernet, IOU wins end-to-end for a 25%-touch
	// process; the gap must shrink dramatically on a fast network
	// (faults pay fixed CPU costs that bandwidth cannot remove).
	slowGap := slowCopy.EndToEnd.Seconds() - slowIOU.EndToEnd.Seconds()
	fastGap := fastCopy.EndToEnd.Seconds() - fastIOU.EndToEnd.Seconds()
	if slowGap <= fastGap {
		t.Errorf("bandwidth did not close the copy/IOU gap: slow %+.2fs fast %+.2fs", slowGap, fastGap)
	}
	// Copy's transfer itself must speed up with bandwidth.
	if fastCopy.Transfer >= slowCopy.Transfer {
		t.Errorf("copy transfer not faster on fast link: %v vs %v", fastCopy.Transfer, slowCopy.Transfer)
	}
}

func TestIOUCacheAblation(t *testing.T) {
	rows, err := IOUCacheAblation(Config{})
	if err != nil {
		t.Fatal(err)
	}
	on, off := rows[0], rows[1]
	// Without the NetMsgServer cache there is no backer: everything
	// moves at migration time and the transfer balloons.
	if off.Transfer < 10*on.Transfer {
		t.Errorf("cache-off transfer (%v) not far above cache-on (%v)", off.Transfer, on.Transfer)
	}
	if off.Bytes < 2*on.Bytes {
		t.Errorf("cache-off bytes (%d) not well above cache-on (%d)", off.Bytes, on.Bytes)
	}
}

func TestCopyThresholdAblation(t *testing.T) {
	rows, err := CopyThresholdAblation(Config{}, []int{4096, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Forcing physical copies for big messages (huge threshold) makes
	// migration slower end to end.
	if rows[1].EndToEnd <= rows[0].EndToEnd {
		t.Errorf("huge copy threshold not slower: %v vs %v", rows[1].EndToEnd, rows[0].EndToEnd)
	}
}

func TestPrefetchAblation(t *testing.T) {
	rows, err := PrefetchAblation(Config{}, core.PrefetchValues())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential workload: more prefetch, faster remote execution.
	if rows[len(rows)-1].RemoteExec >= rows[0].RemoteExec {
		t.Errorf("prefetch did not speed sequential execution: PF0 %v, PF15 %v",
			rows[0].RemoteExec, rows[len(rows)-1].RemoteExec)
	}
}

func TestPreCopyComparison(t *testing.T) {
	rows, err := PreCopyComparison(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	pre, cp, iou := rows[0], rows[1], rows[2]
	// Pre-copy's pitch: downtime well below stop-and-copy.
	if pre.Downtime >= cp.Downtime/2 {
		t.Errorf("pre-copy downtime %v not well below stop-and-copy %v", pre.Downtime, cp.Downtime)
	}
	// IOU resumes even faster than pre-copy finishes its handoff.
	if iou.Downtime >= cp.Downtime {
		t.Errorf("IOU downtime %v not below copy %v", iou.Downtime, cp.Downtime)
	}
	// But pre-copy pays full transfer cost (and more, for re-dirtied
	// pages) while IOU ships almost nothing up front.
	if pre.Bytes <= iou.Bytes {
		t.Errorf("pre-copy bytes (%d) not above IOU (%d)", pre.Bytes, iou.Bytes)
	}
	if pre.Bytes < cp.Bytes {
		t.Errorf("pre-copy bytes (%d) below pure copy (%d)", pre.Bytes, cp.Bytes)
	}
}

func TestBreakevenNearQuarter(t *testing.T) {
	rows, err := BreakevenSweep(Config{}, []int{5, 10, 15, 20, 25, 30, 40, 50, 60})
	if err != nil {
		t.Fatal(err)
	}
	// Small touch fractions favor IOU; large ones favor copy.
	if rows[0].SpeedupPct <= 0 {
		t.Errorf("5%% touch: IOU speedup = %.1f%%, want positive", rows[0].SpeedupPct)
	}
	if last := rows[len(rows)-1]; last.SpeedupPct >= 0 {
		t.Errorf("60%% touch: IOU speedup = %.1f%%, want negative", last.SpeedupPct)
	}
	be := Breakeven(rows)
	if be < 10 || be > 45 {
		t.Errorf("breakeven at %.0f%% of RealMem, paper ≈25%%", be)
	}
	t.Logf("breakeven ≈ %.0f%% (paper ≈25%%)", be)
}

func TestBystanderImpact(t *testing.T) {
	rows, err := BystanderImpact(Config{})
	if err != nil {
		t.Fatal(err)
	}
	byStrat := map[core.Strategy]BystanderRow{}
	for _, r := range rows {
		byStrat[r.Strategy] = r
		if r.SlowdownPct < -1 {
			t.Errorf("%v: negative slowdown %.1f%%", r.Strategy, r.SlowdownPct)
		}
	}
	iou := byStrat[core.PureIOU]
	cp := byStrat[core.PureCopy]
	// §4.4.3: pure-copy's burst steals far more bystander time during
	// the migration window than IOU's trickle.
	if iou.SlowdownPct >= cp.SlowdownPct {
		t.Errorf("IOU slowdown (%.1f%%) not below copy (%.1f%%)", iou.SlowdownPct, cp.SlowdownPct)
	}
	if cp.SlowdownPct < 5 {
		t.Errorf("copy slowdown only %.1f%%; expected a visible burst", cp.SlowdownPct)
	}
}

func TestResidualSeries(t *testing.T) {
	series, err := ResidualSeries(Config{}, workload.LispT, 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 3 {
		t.Fatalf("series too short: %d points", len(series))
	}
	// Monotone non-increasing once migration completes, ending well
	// above zero: Lisp-T leaves most of its 4303 pages owed forever.
	final := series[len(series)-1].Pages
	if final < 3500 {
		t.Errorf("final residual = %d, want most of 4303 still owed", final)
	}
	peak := 0
	for _, pt := range series {
		if pt.Pages > peak {
			peak = pt.Pages
		}
	}
	if peak < final {
		t.Error("series never peaked")
	}
}

// TestSideExperimentsReturnFailedMigration partitions the link for the
// first minute, so every migration the bystander and residual
// experiments start aborts; each must return that error instead of
// panicking or reporting a series of a migration that never happened.
func TestSideExperimentsReturnFailedMigration(t *testing.T) {
	plan, err := faults.Parse([]byte(`{"seed":1,"partitions":[{"start":"0s","end":"60s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Faults: plan}
	if _, err := BystanderImpact(cfg); !errors.Is(err, core.ErrMigrationAborted) {
		t.Errorf("BystanderImpact: err = %v, want an aborted migration", err)
	}
	if _, err := ResidualSeries(cfg, workload.LispDel, 0, 5*time.Second); !errors.Is(err, core.ErrMigrationAborted) {
		t.Errorf("ResidualSeries: err = %v, want an aborted migration", err)
	}
}

// TestSideExperimentsReturnRemoteFailure crashes the source's backer
// as excision begins, so each lazily migrated process loses the memory
// it still owes and dies at its first remote fault. Each experiment
// must return that remote-execution error rather than report what the
// broken run measured.
func TestSideExperimentsReturnRemoteFailure(t *testing.T) {
	cfg := Config{Faults: &faults.Plan{Crashes: []faults.Crash{
		{Machine: "src", AtPhase: "excise", Policy: faults.CrashFail},
	}}}
	if _, err := BystanderImpact(cfg); !errors.Is(err, pager.ErrBackerLost) {
		t.Errorf("BystanderImpact: err = %v, want a lost backer", err)
	}
	if _, err := ResidualSeries(cfg, workload.LispDel, 0, 5*time.Second); !errors.Is(err, pager.ErrBackerLost) {
		t.Errorf("ResidualSeries: err = %v, want a lost backer", err)
	}
	if _, err := PreCopyComparison(cfg); !errors.Is(err, pager.ErrBackerLost) {
		t.Errorf("PreCopyComparison: err = %v, want a lost backer", err)
	}
	if _, err := HopPenalty(cfg); !errors.Is(err, pager.ErrBackerLost) {
		t.Errorf("HopPenalty: err = %v, want a lost backer", err)
	}
	if _, err := NearestHolder(cfg); !errors.Is(err, pager.ErrBackerLost) {
		t.Errorf("NearestHolder: err = %v, want a lost backer", err)
	}
}

func TestHopPenalty(t *testing.T) {
	rows, err := HopPenalty(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ratio := float64(rows[1].FaultMean) / float64(rows[0].FaultMean)
	// The second hop relays every fault through an extra NetMsgServer:
	// noticeably slower, but less than double (shared fixed costs).
	if ratio < 1.2 || ratio > 2.5 {
		t.Errorf("hop penalty = %.2fx, want ≈1.5x", ratio)
	}
	t.Logf("1 hop %.0fms, 2 hops %.0fms (%.2fx)",
		rows[0].FaultMean.Seconds()*1000, rows[1].FaultMean.Seconds()*1000, ratio)
}
