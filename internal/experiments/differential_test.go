package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

// hashFlagMix draws a non-empty mix of the hashing features: dedup
// (optionally with compression, which needs it), integrity and resume.
func hashFlagMix(rng *xrand.RNG) (vm.DedupConfig, string) {
	for {
		var d vm.DedupConfig
		name := ""
		if rng.Intn(2) == 1 {
			d.Enabled = true
			name += "+dedup"
			if rng.Intn(2) == 1 {
				d.Compress = true
				name += "+compress"
			}
		}
		if rng.Intn(2) == 1 {
			d.Integrity = true
			name += "+integrity"
		}
		if rng.Intn(2) == 1 {
			d.Resume = true
			name += "+resume"
		}
		if name != "" {
			return d, name[1:]
		}
	}
}

// finalImage migrates k fault-free with the given strategy and
// prefetch, runs the program to completion at the destination,
// dissolves its remaining IOUs and returns the digest of its final
// memory image.
func finalImage(t *testing.T, cfg Config, k workload.Kind, strat core.Strategy, prefetch int) uint64 {
	t.Helper()
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, k)
	if err != nil {
		t.Fatal(err)
	}
	tb.Src.Start(built.Proc)
	var rep *core.Report
	var migErr, execErr, dissolveErr error
	tb.K.Go("driver", func(p *sim.Proc) {
		rep, migErr = tb.SrcMgr.MigrateTo(p, k.String(), tb.DstMgr.Port.ID, core.Options{
			Strategy: strat, Prefetch: prefetch,
		})
		if migErr != nil {
			return
		}
		if pr, ok := tb.Dst.Process(k.String()); ok {
			execErr = pr.WaitDone(p)
			// Which IOU pages a run has pulled over depends on prefetch
			// and on where faults were served, not on what the memory
			// holds; pull the rest so the digest sees all of it.
			_, dissolveErr = core.DissolveIOUs(p, tb.Dst, pr)
		}
	})
	tb.K.Run()
	if migErr != nil || execErr != nil || dissolveErr != nil {
		t.Fatalf("migration: %v; execution: %v; dissolve: %v", migErr, execErr, dissolveErr)
	}
	if rep.Insert.RepairedPages != 0 {
		// Nothing corrupts pages on a fault-free link, so a repair means
		// a stamped checksum did not name the page it rode with.
		t.Errorf("fault-free run repaired %d pages", rep.Insert.RepairedPages)
	}
	h, ok := tb.Dst.ImageHash(k.String())
	if !ok {
		t.Fatal("process missing at the destination")
	}
	return h
}

// TestHashFeaturesKeepFinalImage is the differential test of the
// hashing features: on fault-free trials, any mix of dedup, compress,
// integrity and resume must leave the migrated program's final image
// exactly as it is with all of them off. Kind, strategy, transport
// window and prefetch are drawn at random from a fixed seed.
func TestHashFeaturesKeepFinalImage(t *testing.T) {
	rng := xrand.New(0xd1ff)
	kinds := workload.Kinds()
	pfs := core.PrefetchValues()
	for i := 0; i < 40; i++ {
		k := kinds[rng.Intn(len(kinds))]
		strat := chaosStrategies[rng.Intn(len(chaosStrategies))]
		win := []int{1, 8}[rng.Intn(2)]
		pf := pfs[rng.Intn(len(pfs))]
		dd, mix := hashFlagMix(rng)
		name := fmt.Sprintf("%s/%s/w%d/pf%d/%s", k, strat, win, pf, mix)
		t.Run(name, func(t *testing.T) {
			var off Config
			off.Machine.Net.Window = win
			on := off
			on.Machine.Dedup = dd
			if got, want := finalImage(t, on, k, strat, pf), finalImage(t, off, k, strat, pf); got != want {
				t.Errorf("final image %#x with %s, %#x with every hashing feature off", got, mix, want)
			}
		})
	}
}

// heldReport migrates k under strat at prefetch 0 with the destination
// held: the process is inserted there but never runs, so nothing it
// would do remotely can reach the report.
func heldReport(t *testing.T, cfg Config, k workload.Kind, strat core.Strategy) *core.Report {
	t.Helper()
	tb := NewTestbed(cfg)
	defer tb.K.Close()
	built, err := workload.Build(tb.Src, k)
	if err != nil {
		t.Fatal(err)
	}
	tb.Src.Start(built.Proc)
	opts := core.Options{Strategy: strat, HoldAtDest: true}
	cfg.applyRecovery(&opts)
	var rep *core.Report
	var migErr error
	tb.K.Go("driver", func(p *sim.Proc) {
		rep, migErr = tb.SrcMgr.MigrateTo(p, k.String(), tb.DstMgr.Port.ID, opts)
	})
	tb.K.Run()
	if migErr != nil {
		t.Fatal(migErr)
	}
	return rep
}

// TestGridCellsMatchHeldMigrations is the premise that lets Tables
// 4-2, 4-4 and 4-5 read grid cells: everything they report (the
// resident set excision collapsed, the excision and insertion times,
// the Core and RIMAS transfer times) is stamped before insertion starts
// the process, so the report of a grid cell, whose process then runs
// at the destination, equals that of a migration whose destination is
// held. Every kind and strategy at prefetch 0, fault-free and under the
// committed burst-and-partition plan with a retry policy.
func TestGridCellsMatchHeldMigrations(t *testing.T) {
	plan, err := faults.Load("../../testdata/faults/burst-partition.json")
	if err != nil {
		t.Fatal(err)
	}
	faulted := Config{Faults: plan, Recovery: &ResilienceOptions{MaxRetries: 3, Degrade: true, AckTimeout: 15 * time.Minute}}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"fault-free", Config{}}, {"burst-partition", faulted}} {
		for _, k := range workload.Kinds() {
			for _, s := range core.Strategies() {
				c, k, s := c, k, s
				t.Run(fmt.Sprintf("%s/%s/%s", c.name, k, s), func(t *testing.T) {
					tr, err := RunTrial(c.cfg, k, s, 0)
					if err != nil {
						t.Fatal(err)
					}
					if held := heldReport(t, c.cfg, k, s); !reflect.DeepEqual(tr.Report, held) {
						t.Errorf("grid cell report\n%+v\nheld migration report\n%+v", *tr.Report, *held)
					}
				})
			}
		}
	}
}
