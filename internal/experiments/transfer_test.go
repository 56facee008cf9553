package experiments

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// transferPages sizes the 1 MB transfer: 2048 pages of 512 bytes of
// segment data, migrated by pure copy and held at the destination.
const transferPages = 2048

// transferTrial is one run of the 1 MB transfer on a fresh testbed.
type transferTrial struct {
	report *core.Report
	err    error
	frames uint64 // link frames carried
	bytes  uint64 // bytes on the simulated wire, all attempts
}

// runTransfer builds the 1 MB process on tb's source, fills page i
// with fill(i, buf), migrates it by pure copy and runs the kernel dry.
func runTransfer(tb *Testbed, fill func(i uint64, buf []byte), opts core.Options) transferTrial {
	defer tb.K.Close()
	pr, err := tb.Src.NewProcess("job", 1)
	if err != nil {
		return transferTrial{err: err}
	}
	reg, err := pr.AS.Validate(0, transferPages*512, "data")
	if err != nil {
		return transferTrial{err: err}
	}
	buf := make([]byte, 512)
	for i := uint64(0); i < transferPages; i++ {
		fill(i, buf)
		reg.Seg.Materialize(i, buf)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	tb.Src.Start(pr)
	var out transferTrial
	tb.K.Go("driver", func(p *sim.Proc) {
		opts.Strategy, opts.HoldAtDest = core.PureCopy, true
		out.report, out.err = tb.SrcMgr.MigrateTo(p, "job", tb.DstMgr.Port.ID, opts)
	})
	tb.K.Run()
	out.frames = tb.Link.Frames()
	out.bytes = tb.Rec.BytesTotal()
	return out
}

// TestTransfer1MBPinned pins the simulated results of the 1 MB pure-copy
// transfer: its RIMAS transfer time and link frames at four send
// windows, the bytes the content store keeps off the wire, and what the
// delivery ledger saves a retry after a partition kills attempt one.
// No host-side change may move any of them.
func TestTransfer1MBPinned(t *testing.T) {
	zeros := func(uint64, []byte) {}
	for _, c := range []struct {
		window int
		xferS  float64
		frames uint64
	}{
		{1, 54.726318666, 1669},
		{4, 32.182070388, 2087},
		{16, 24.393718596, 1775},
		{64, 22.446630648, 1697},
	} {
		cfg := Config{}
		if c.window > 1 {
			cfg.Machine.Net.Window = c.window
		}
		got := runTransfer(NewTestbed(cfg), zeros, core.Options{})
		if got.err != nil {
			t.Fatalf("W=%d: %v", c.window, got.err)
		}
		if s := got.report.RIMASTransfer.Seconds(); s != c.xferS || got.frames != c.frames {
			t.Errorf("W=%d: %.9f s over %d frames, want %.9f s over %d", c.window, s, got.frames, c.xferS, c.frames)
		}
	}

	// A quarter of the pages are distinct: the content store elides the
	// duplicates, and compression shrinks what still ships.
	const distinct = transferPages / 4
	patterned := func(i uint64, buf []byte) {
		for j := range buf {
			buf[j] = byte(int(i%distinct)*31 + j*7 + 1)
		}
	}
	for _, c := range []struct {
		name   string
		dedup  vm.DedupConfig
		bytes  uint64
		elided int
	}{
		{"off", vm.DedupConfig{}, 1119966, 0},
		{"dedup", vm.DedupConfig{Enabled: true}, 159262, 1792},
		{"dedup+comp", vm.DedupConfig{Enabled: true, Compress: true}, 24862, 1792},
	} {
		got := runTransfer(NewTestbed(Config{Machine: machine.Config{Dedup: c.dedup}}), patterned, core.Options{})
		if got.err != nil {
			t.Fatalf("%s: %v", c.name, got.err)
		}
		if got.bytes != c.bytes || got.report.Insert.ElidedPages != c.elided {
			t.Errorf("%s: %d bytes on the wire, %d pages elided; want %d, %d",
				c.name, got.bytes, got.report.Insert.ElidedPages, c.bytes, c.elided)
		}
	}

	// Every page distinct; a partition from 32 s to 48 s kills the first
	// attempt past the halfway mark. Attempt two's bytes are the full
	// run's less those of a run with no retry budget, which aborts where
	// attempt one died.
	distinctPages := func(i uint64, buf []byte) {
		binary.LittleEndian.PutUint64(buf, i+1)
		for j := 8; j < len(buf); j++ {
			buf[j] = byte(int(i)*31 + j*7 + 1)
		}
	}
	resume := func(ledger bool, retries int) transferTrial {
		tb := NewTestbed(Config{Machine: machine.Config{Dedup: vm.DedupConfig{Resume: ledger}}})
		tb.ArmFaults(&faults.Plan{Seed: 1, Partitions: []faults.Window{{
			Start: faults.Duration(32 * time.Second),
			End:   faults.Duration(48 * time.Second),
		}}})
		return runTransfer(tb, distinctPages, core.Options{
			MaxRetries: retries, AckTimeout: 15 * time.Minute,
		})
	}
	for _, c := range []struct {
		ledger          bool
		total, attempt2 uint64
		resumed         int
	}{
		{false, 1745828, 1120094, 0},
		{true, 1164436, 555854, 1066},
	} {
		abort := resume(c.ledger, 0)
		if !errors.Is(abort.err, core.ErrMigrationAborted) {
			t.Fatalf("ledger %v: attempt one alone ended with %v, want an abort", c.ledger, abort.err)
		}
		full := resume(c.ledger, 3)
		if full.err != nil {
			t.Fatalf("ledger %v: %v", c.ledger, full.err)
		}
		if full.report.Attempts != 2 || full.bytes != c.total || full.bytes-abort.bytes != c.attempt2 ||
			full.report.Insert.ResumedPages != c.resumed {
			t.Errorf("ledger %v: %d attempts, %d bytes (%d on attempt 2), %d pages resumed; want 2, %d (%d), %d",
				c.ledger, full.report.Attempts, full.bytes, full.bytes-abort.bytes, full.report.Insert.ResumedPages,
				c.total, c.attempt2, c.resumed)
		}
	}
}
