package experiments

import (
	"fmt"
	"testing"

	"accentmig/internal/core"
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
			Strategy: strat, Prefetch: prefetch, WaitMigratePoint: true,
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
