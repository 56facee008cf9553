package experiments

import (
	"testing"

	"accentmig/internal/core"
	"accentmig/internal/workload"
)

// TestDedupSweepSavesBytes pins the headline acceptance number: with
// the content-addressed store on, a paper workload's pure-copy
// migration must put at least 30% fewer bytes on the wire than the
// untouched baseline — net of the manifest round trip itself.
func TestDedupSweepSavesBytes(t *testing.T) {
	tab, err := Default.Dedup(Config{}, []workload.Kind{workload.Minprog, workload.LispDel})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[workload.Kind]map[core.Strategy]*DedupRow{}
	for i := range tab.Rows {
		r := &tab.Rows[i]
		if rows[r.Mode] == nil {
			rows[r.Mode] = map[workload.Kind]map[core.Strategy]*DedupRow{}
		}
		if rows[r.Mode][r.Kind] == nil {
			rows[r.Mode][r.Kind] = map[core.Strategy]*DedupRow{}
		}
		rows[r.Mode][r.Kind][r.Strategy] = r
	}
	for _, kind := range tab.Kinds {
		off := rows["off"][kind][core.PureCopy]
		on := rows["dedup"][kind][core.PureCopy]
		comp := rows["dedup+comp"][kind][core.PureCopy]
		if off == nil || on == nil || comp == nil {
			t.Fatalf("%v: sweep missing pure-copy rows", kind)
		}
		if on.Bytes >= off.Bytes {
			t.Errorf("%v: dedup pure-copy bytes %d, want < baseline %d", kind, on.Bytes, off.Bytes)
		}
		// The headline >=30% number is pinned on a workload with real
		// memory; tiny Minprog trials are dominated by protocol bytes.
		if kind == workload.LispDel && on.Bytes > off.Bytes*7/10 {
			t.Errorf("%v: dedup pure-copy bytes %d, want <= 70%% of baseline %d", kind, on.Bytes, off.Bytes)
		}
		if on.Elided == 0 {
			t.Errorf("%v: dedup pure-copy elided no pages", kind)
		}
		if comp.Bytes > on.Bytes {
			t.Errorf("%v: compression grew wire bytes: %d > %d", kind, comp.Bytes, on.Bytes)
		}
		if off.Elided != 0 || off.Local != 0 || off.Holder != 0 {
			t.Errorf("%v: off row shows store activity: %+v", kind, *off)
		}
	}
	if s := FormatDedup(tab); s == "" {
		t.Error("FormatDedup returned nothing")
	}
}

// TestDedupOffMatchesDefault pins the compatibility contract: the
// sweep's off rows come from the identical code path as the default
// experiments — same bytes on the wire, bit for bit.
func TestDedupOffMatchesDefault(t *testing.T) {
	tab, err := Default.Dedup(Config{}, []workload.Kind{workload.Minprog})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range dedupStrategies {
		base, err := RunTrial(Config{}, workload.Minprog, strat, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tab.Rows {
			r := &tab.Rows[i]
			if r.Mode != "off" || r.Strategy != strat {
				continue
			}
			if r.Bytes != base.BytesTotal {
				t.Errorf("%v: off row bytes %d != default trial bytes %d", strat, r.Bytes, base.BytesTotal)
			}
			if r.Xfer != base.Report.RIMASTransfer {
				t.Errorf("%v: off row xfer %v != default trial xfer %v", strat, r.Xfer, base.Report.RIMASTransfer)
			}
		}
	}
}

// TestNearestHolderCutsFaultStalls pins the nearest-holder acceptance
// criterion on the three-machine topology: with the store on, faults
// are served by the bystander holder over the fast link, and the mean
// stall drops well below the slow-link origin baseline.
func TestNearestHolderCutsFaultStalls(t *testing.T) {
	rows, err := NearestHolder(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	origin, holder := rows[0], rows[1]
	if origin.Holder != 0 || origin.Local != 0 {
		t.Errorf("store-off run shows content-index serves: %+v", origin)
	}
	if holder.Holder == 0 {
		t.Fatalf("no faults served by the nearest holder: %+v", holder)
	}
	if holder.FaultMean >= origin.FaultMean*3/4 {
		t.Errorf("holder fault mean %v, want < 75%% of origin-backer mean %v",
			holder.FaultMean, origin.FaultMean)
	}
}
