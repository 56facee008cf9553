package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/machine"
	"accentmig/internal/metrics"
	"accentmig/internal/netlink"
	"accentmig/internal/sim"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// wirePages sizes the transport benchmark's pure-copy migration: 2048
// pages of 512 bytes = 1 MB of segment data on the wire.
const wirePages = 2048

// WireRow is one send-window setting's measured transfer.
type WireRow struct {
	Window      int     `json:"window"`
	SimXferS    float64 `json:"sim_xfer_s"`     // simulated RIMAS transfer seconds
	Frames      uint64  `json:"frames"`         // link frames carried
	FramesPerS  float64 `json:"frames_per_sec"` // frames per simulated second
	Events      uint64  `json:"events"`         // DES events the run cost
	HostWallMS  float64 `json:"host_wall_ms"`   // host time to simulate the run
	AllocsPerOp uint64  `json:"allocs_per_op"`  // host heap allocations for the run
	BytesPerOp  uint64  `json:"bytes_per_op"`   // host heap bytes for the run
}

// WireReport is the transport benchmark: the same 1 MB pure-copy
// migration at each send-window setting. W=1 is the stop-and-wait
// baseline; the speedup field is the W=16 acceptance headline. The
// host-environment header (gomaxprocs/cpus/go/window) is shared with
// BENCH_grid.json and BENCH_vm.json so the three files join on it;
// window here is the baseline setting, each row carries its own.
type WireReport struct {
	GOMAXPROCS    int       `json:"gomaxprocs"`
	CPUs          int       `json:"cpus"`
	Go            string    `json:"go"`
	Window        int       `json:"window"`
	TransferBytes uint64    `json:"transfer_bytes"`
	W16SimSpeedup float64   `json:"w16_sim_speedup"`
	Rows          []WireRow `json:"rows"`

	// Dedup rows run the same-size migration with patterned pages (4x
	// content duplication) through the content-addressed store.
	// DedupBytesSavedPct is the acceptance headline: bytes on wire saved
	// by the store, net of its own manifest traffic.
	DedupBytesSavedPct float64        `json:"dedup_bytes_saved_pct"`
	DedupRows          []DedupWireRow `json:"dedup_rows"`

	// Resume rows kill the same migration's first attempt past the
	// halfway mark of the transfer and let a retry finish the job, with
	// the delivery ledger off and on. ResumeBytesSavedPct is the retry
	// cost headline: attempt-two wire bytes the ledger elided, net of
	// the manifest traffic the resume path adds.
	ResumeBytesSavedPct float64         `json:"resume_bytes_saved_pct"`
	ResumeRows          []ResumeWireRow `json:"resume_rows"`
}

// DedupWireRow is one store mode's measured transfer.
type DedupWireRow struct {
	Mode        string  `json:"mode"`
	SimXferS    float64 `json:"sim_xfer_s"`   // simulated RIMAS transfer seconds
	Bytes       uint64  `json:"bytes"`        // total bytes on the simulated wire
	ElidedPages int     `json:"elided_pages"` // pages rebuilt instead of shipped
	HostWallMS  float64 `json:"host_wall_ms"` // host time to simulate the run
}

// runDedupWireOnce simulates the patterned-page pure-copy migration
// under one store mode. Pages cycle through wirePages/4 distinct
// contents, so a quarter of the data is unique — the shape of a code
// segment shared across process instances.
func runDedupWireOnce(mode vm.DedupConfig) (DedupWireRow, error) {
	k := sim.New()
	defer k.Close()
	mcfg := machine.Config{Dedup: mode}
	src := machine.New(k, "src", mcfg)
	dst := machine.New(k, "dst", mcfg)
	link := machine.Connect(src, dst, netlink.Config{})
	rec := metrics.NewRecorder(time.Second)
	src.SetRecorder(rec)
	dst.SetRecorder(rec)
	link.SetRecorder(rec)
	srcM := core.NewManager(src, core.DefaultTuning())
	dstM := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")

	pr, err := src.NewProcess("job", 1)
	if err != nil {
		return DedupWireRow{}, err
	}
	reg, err := pr.AS.Validate(0, wirePages*512, "data")
	if err != nil {
		return DedupWireRow{}, err
	}
	const distinct = wirePages / 4
	for i := uint64(0); i < wirePages; i++ {
		buf := make([]byte, 512)
		for j := range buf {
			buf[j] = byte(int(i%distinct)*31 + j*7 + 1)
		}
		reg.Seg.Materialize(i, buf)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	src.Start(pr)

	var rep *core.Report
	var migErr error
	k.Go("driver", func(p *sim.Proc) {
		rep, migErr = srcM.MigrateTo(p, "job", dstM.Port.ID, core.Options{
			Strategy: core.PureCopy, HoldAtDest: true,
		})
	})
	k.Run()
	if migErr != nil {
		return DedupWireRow{}, migErr
	}
	return DedupWireRow{
		SimXferS:    rep.RIMASTransfer.Seconds(),
		Bytes:       rec.BytesTotal(),
		ElidedPages: rep.Insert.ElidedPages,
	}, nil
}

// ResumeWireRow is one ledger mode's measured retry.
type ResumeWireRow struct {
	Mode          string  `json:"mode"`           // "ledger-off" or "ledger-on"
	Attempts      int     `json:"attempts"`       // migration attempts taken
	TotalBytes    uint64  `json:"total_bytes"`    // wire bytes across all attempts
	Attempt2Bytes uint64  `json:"attempt2_bytes"` // wire bytes the retry itself cost
	ResumedPages  int     `json:"resumed_pages"`  // pages rebuilt from the ledger
	HostWallMS    float64 `json:"host_wall_ms"`   // host time to simulate the run
}

// runResumeWireOnce simulates the 1 MB pure-copy migration with every
// page's content distinct, under a partition that opens 32 s into the
// run — past the halfway mark of the ~55 s stop-and-wait transfer —
// and outlasts the transport's dead-peer horizon, killing attempt one.
// maxRetries 0 measures attempt one alone (the migration aborts);
// maxRetries above 0 lets the retry complete on the healed link.
func runResumeWireOnce(resume bool, maxRetries int) (ResumeWireRow, error) {
	k := sim.New()
	defer k.Close()
	mcfg := machine.Config{Dedup: vm.DedupConfig{Resume: resume}}
	src := machine.New(k, "src", mcfg)
	dst := machine.New(k, "dst", mcfg)
	link := machine.Connect(src, dst, netlink.Config{})
	link.SetFaults(faults.NewInjector(&faults.Plan{Seed: 1, Partitions: []faults.Window{{
		Start: faults.Duration(32 * time.Second),
		End:   faults.Duration(48 * time.Second),
	}}}, ""))
	rec := metrics.NewRecorder(time.Second)
	src.SetRecorder(rec)
	dst.SetRecorder(rec)
	link.SetRecorder(rec)
	srcM := core.NewManager(src, core.DefaultTuning())
	dstM := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")

	pr, err := src.NewProcess("job", 1)
	if err != nil {
		return ResumeWireRow{}, err
	}
	reg, err := pr.AS.Validate(0, wirePages*512, "data")
	if err != nil {
		return ResumeWireRow{}, err
	}
	for i := uint64(0); i < wirePages; i++ {
		// Every page distinct — the index in the first bytes defeats the
		// manifest's intra-transfer twin elision, so the wire carries the
		// full image and only the ledger can shrink the retry.
		buf := make([]byte, 512)
		binary.LittleEndian.PutUint64(buf, i+1)
		for j := 8; j < len(buf); j++ {
			buf[j] = byte(int(i)*31 + j*7 + 1)
		}
		reg.Seg.Materialize(i, buf)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	src.Start(pr)

	var rep *core.Report
	var migErr error
	k.Go("driver", func(p *sim.Proc) {
		rep, migErr = srcM.MigrateTo(p, "job", dstM.Port.ID, core.Options{
			Strategy: core.PureCopy, HoldAtDest: true, WaitMigratePoint: true,
			MaxRetries: maxRetries, AckTimeout: 15 * time.Minute,
		})
	})
	k.Run()
	row := ResumeWireRow{TotalBytes: rec.BytesTotal()}
	if migErr != nil {
		if maxRetries == 0 && errors.Is(migErr, core.ErrMigrationAborted) {
			return row, nil // attempt-one baseline: the abort is the point
		}
		return ResumeWireRow{}, migErr
	}
	row.Attempts = rep.Attempts
	row.ResumedPages = rep.Insert.ResumedPages
	return row, nil
}

// runWireOnce simulates one pure-copy migration of a 1 MB process at
// the given send window and returns the row (without host-side cost
// fields, which the caller measures around this call).
func runWireOnce(window int) (WireRow, error) {
	k := sim.New()
	defer k.Close()
	mcfg := machine.Config{}
	if window > 1 {
		mcfg.Net.Window = window
	}
	src := machine.New(k, "src", mcfg)
	dst := machine.New(k, "dst", mcfg)
	link := machine.Connect(src, dst, netlink.Config{})
	srcM := core.NewManager(src, core.DefaultTuning())
	dstM := core.NewManager(dst, core.DefaultTuning())
	src.Net.AddRoute(dstM.Port.ID, "dst")
	dst.Net.AddRoute(srcM.Port.ID, "src")

	pr, err := src.NewProcess("job", 1)
	if err != nil {
		return WireRow{}, err
	}
	reg, err := pr.AS.Validate(0, wirePages*512, "data")
	if err != nil {
		return WireRow{}, err
	}
	buf := make([]byte, 512)
	for i := uint64(0); i < wirePages; i++ {
		reg.Seg.Materialize(i, buf)
	}
	pr.Program = &trace.Program{Ops: []trace.Op{trace.MigratePoint{}}}
	src.Start(pr)

	var rep *core.Report
	var migErr error
	k.Go("driver", func(p *sim.Proc) {
		rep, migErr = srcM.MigrateTo(p, "job", dstM.Port.ID, core.Options{
			Strategy: core.PureCopy, HoldAtDest: true,
		})
	})
	k.Run()
	if migErr != nil {
		return WireRow{}, migErr
	}
	row := WireRow{
		Window:   window,
		SimXferS: rep.RIMASTransfer.Seconds(),
		Frames:   link.Frames(),
		Events:   k.EventsRun(),
	}
	if s := rep.RIMASTransfer.Seconds(); s > 0 {
		row.FramesPerS = float64(row.Frames) / s
	}
	return row, nil
}

// runWireBenchmarks sweeps the send window over the 1 MB transfer and
// writes the report to path.
func runWireBenchmarks(path string) error {
	report := WireReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUs:          runtime.NumCPU(),
		Go:            runtime.Version(),
		Window:        1,
		TransferBytes: wirePages * 512,
	}
	var m0, m1 runtime.MemStats
	for _, w := range []int{1, 4, 16, 64} {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		row, err := runWireOnce(w)
		if err != nil {
			return err
		}
		row.HostWallMS = float64(time.Since(start).Nanoseconds()) / 1e6
		runtime.ReadMemStats(&m1)
		row.AllocsPerOp = m1.Mallocs - m0.Mallocs
		row.BytesPerOp = m1.TotalAlloc - m0.TotalAlloc
		report.Rows = append(report.Rows, row)
	}
	if base, w16 := report.Rows[0].SimXferS, findWireRow(report.Rows, 16); w16 != nil && w16.SimXferS > 0 {
		report.W16SimSpeedup = base / w16.SimXferS
	}

	for _, m := range []struct {
		name string
		cfg  vm.DedupConfig
	}{
		{"off", vm.DedupConfig{}},
		{"dedup", vm.DedupConfig{Enabled: true}},
		{"dedup+comp", vm.DedupConfig{Enabled: true, Compress: true}},
	} {
		start := time.Now()
		row, err := runDedupWireOnce(m.cfg)
		if err != nil {
			return err
		}
		row.Mode = m.name
		row.HostWallMS = float64(time.Since(start).Nanoseconds()) / 1e6
		report.DedupRows = append(report.DedupRows, row)
	}
	if off, on := report.DedupRows[0].Bytes, report.DedupRows[1].Bytes; off > 0 {
		report.DedupBytesSavedPct = 100 * (1 - float64(on)/float64(off))
	}

	// Retry cost: attempt-two bytes are the full run minus an identical
	// run whose retry budget is zero, which aborts where attempt one
	// died — both runs share every byte up to that instant.
	for _, mode := range []bool{false, true} {
		start := time.Now()
		abort, err := runResumeWireOnce(mode, 0)
		if err != nil {
			return err
		}
		row, err := runResumeWireOnce(mode, 3)
		if err != nil {
			return err
		}
		row.Mode = "ledger-off"
		if mode {
			row.Mode = "ledger-on"
		}
		row.Attempt2Bytes = row.TotalBytes - abort.TotalBytes
		row.HostWallMS = float64(time.Since(start).Nanoseconds()) / 1e6
		report.ResumeRows = append(report.ResumeRows, row)
	}
	if off, on := report.ResumeRows[0].Attempt2Bytes, report.ResumeRows[1].Attempt2Bytes; off > 0 {
		report.ResumeBytesSavedPct = 100 * (1 - float64(on)/float64(off))
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&report); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("migbench: wire sweep (%d pages", wirePages)
	for _, r := range report.Rows {
		fmt.Printf(", W=%d %.1fs", r.Window, r.SimXferS)
	}
	fmt.Printf(", W16 speedup %.2fx) -> %s\n", report.W16SimSpeedup, path)
	fmt.Printf("migbench: dedup sweep (")
	for i, r := range report.DedupRows {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s %dB", r.Mode, r.Bytes)
	}
	fmt.Printf(") %.1f%% saved -> %s\n", report.DedupBytesSavedPct, path)
	fmt.Printf("migbench: resume sweep (")
	for i, r := range report.ResumeRows {
		if i > 0 {
			fmt.Printf(", ")
		}
		fmt.Printf("%s attempt2 %dB resumed %d", r.Mode, r.Attempt2Bytes, r.ResumedPages)
	}
	fmt.Printf(") %.1f%% saved -> %s\n", report.ResumeBytesSavedPct, path)
	return nil
}

func findWireRow(rows []WireRow, w int) *WireRow {
	for i := range rows {
		if rows[i].Window == w {
			return &rows[i]
		}
	}
	return nil
}
