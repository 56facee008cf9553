package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/sim"
	"accentmig/internal/vmbench"
	"accentmig/internal/workload"
)

// Probes time single layers in isolation, once at the end of a traced
// run. They take fixed inputs, not the workload seed, so each reads the
// same work on every workload.

// probeBenchtime is how long each VM microbenchmark body runs.
const probeBenchtime = "200ms"

// probeIters is how many timed calls each of the other probes makes; the
// probe reports their median.
const probeIters = 5

func probes(workdir string) (counters, error) {
	c := counters{}
	testing.Init()
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		return nil, err
	}
	for _, b := range []struct {
		name  string
		body  func(*testing.B)
		scale float64 // from ns per op to the metric's unit
	}{
		{"vm.page_hash_ns", vmbench.PageHash, 1},
		{"vm.resident_touch_ns", vmbench.ResidentTouch, 1},
		{"vm.cow_break_ns", vmbench.COWBreak, 1},
		{"vm.content_index_hit_ns", vmbench.ContentIndexHit, 1},
		{"vm.build_amap_us", vmbench.BuildAMapSparse, 1e-3},
	} {
		r := testing.Benchmark(b.body)
		if r.N == 0 {
			return nil, fmt.Errorf("%s: benchmark body failed", b.name)
		}
		c[b.name] = float64(r.T.Nanoseconds()) / float64(r.N) * b.scale
	}

	var err error
	if c["core.excise_ms"], err = timeMedian(probeIters, exciseOnce); err != nil {
		return nil, fmt.Errorf("excise: %w", err)
	}
	if c["workload.build_ms"], err = timeMedian(probeIters, buildAll); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	c["experiments.memo_hit_us"], c["experiments.disk_hit_us"], err = memoProbes(workdir)
	return c, err
}

// timeMedian returns the median of n timings in milliseconds; each call
// of once reports the duration of the part it times.
func timeMedian(n int, once func() (time.Duration, error)) (float64, error) {
	ts := make([]float64, n)
	for i := range ts {
		d, err := once()
		if err != nil {
			return 0, err
		}
		ts[i] = ms(d)
	}
	return median(ts), nil
}

// exciseOnce times one core.ExciseProcess of Lisp-Del under pure copy on
// a fresh testbed.
func exciseOnce() (time.Duration, error) {
	tb := experiments.NewTestbed(experiments.Config{})
	b, err := workload.Build(tb.Src, workload.LispDel)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	tb.K.Go("excise-probe", func(p *sim.Proc) {
		start := time.Now()
		_, err = core.ExciseProcess(p, tb.Src, b.Proc, core.PureCopy, 0, core.DefaultTuning())
		d = time.Since(start)
	})
	tb.K.Run()
	return d, err
}

// buildAll times workload.Build of all seven representatives, each on a
// fresh testbed whose construction is not timed.
func buildAll() (time.Duration, error) {
	var total time.Duration
	for _, k := range workload.Kinds() {
		tb := experiments.NewTestbed(experiments.Config{})
		start := time.Now()
		if _, err := workload.Build(tb.Src, k); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total, nil
}

// memoProbeCalls is how many lookups each memo probe times.
const memoProbeCalls = 200

// memoProbes times one grid-cell lookup served from an engine's memory
// and one served from a disk cache by a fresh engine, in microseconds.
func memoProbes(workdir string) (memoUs, diskUs float64, err error) {
	var cfg experiments.Config
	cell := func(e *experiments.Engine) error {
		_, err := e.Trial(cfg, workload.Minprog, core.PureCopy, 0)
		return err
	}
	timeCalls := func(call func() error) (float64, error) {
		ts := make([]float64, memoProbeCalls)
		for i := range ts {
			start := time.Now()
			if err := call(); err != nil {
				return 0, err
			}
			ts[i] = us(time.Since(start))
		}
		return median(ts), nil
	}

	e := experiments.NewEngine(1)
	if err := cell(e); err != nil {
		return 0, 0, err
	}
	if memoUs, err = timeCalls(func() error { return cell(e) }); err != nil {
		return 0, 0, err
	}

	if err := os.MkdirAll(workdir, 0o777); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(workdir, "probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	d, err := experiments.OpenDiskCache(dir, 0)
	if err != nil {
		return 0, 0, err
	}
	e.SetDisk(d)
	e.Reset()
	if err := cell(e); err != nil {
		return 0, 0, err
	}
	diskUs, err = timeCalls(func() error {
		fresh := experiments.NewEngine(1)
		fresh.SetDisk(d)
		return cell(fresh)
	})
	if err == nil && d.Stats().Hits != memoProbeCalls {
		err = errors.New("disk probe missed the cache")
	}
	return memoUs, diskUs, err
}
