package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"accentmig/internal/vm"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"runtime under core charges core", []string{
			"runtime.memmove", "runtime.growslice",
			"accentmig/internal/core.appendCollapsedPage",
			"accentmig/internal/core.collapseRealRun",
			"accentmig/internal/experiments.(*Engine).fanOut.func1",
		}, "core"},
		{"GC assist charges the allocating layer", []string{
			"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"accentmig/internal/vm.(*FramePool).Get",
			"accentmig/internal/sim.(*Kernel).Run",
		}, "vm"},
		{"generic method of a project package", []string{
			"accentmig/internal/sim.(*Queue[go.shape.int]).Push",
		}, "sim"},
		{"GC worker charges gc", []string{
			"runtime.scanobject", "runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2", "runtime.systemstack",
			"runtime.gcBgMarkWorker",
		}, "gc"},
		{"sweeper charges gc", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"scheduler charges sched", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep",
			"runtime.stopm", "runtime.findRunnable", "runtime.schedule",
			"runtime.park_m", "runtime.mcall",
		}, "sched"},
		{"system pseudo-frame charges sched", []string{"runtime._System"}, "sched"},
		{"small package charges other", []string{
			"runtime.mapassign", "accentmig/internal/obs.(*MemorySink).Emit",
			"accentmig/internal/sim.(*Kernel).Emit",
		}, "other"},
		{"benchmark harness charges other", []string{"strings.Index", "main.(*paper).rep"}, "other"},
		{"stdlib goroutine stays unattributed", []string{
			"runtime.gopark", "runtime/pprof.profileWriter",
		}, ""},
		{"empty stack stays unattributed", nil, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAttributeProfile decodes a real CPU profile: time spent hashing
// pages must come back charged to vm, ahead of every other layer.
func TestAttributeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	page := make([]byte, vm.DefaultPageSize)
	var sink uint64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			page[i%len(page)]++
			h, _ := vm.HashPage(page, vm.DefaultPageSize)
			sink += h
		}
	}
	pprof.StopCPUProfile()
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Skip("profile holds no samples")
	}
	for l, ns := range a.nanos {
		if ns > a.nanos["vm"] {
			t.Errorf("%s holds more CPU than vm: %v of %v profiled", l, a.nanos, time.Duration(a.total))
		}
	}
	if a.nanos["vm"] == 0 {
		t.Errorf("no CPU charged to vm: %v", a.nanos)
	}
	if sink == 0 {
		t.Log("hash sink zero")
	}
}

func TestProfileSamplesRejectsGarbage(t *testing.T) {
	if _, err := attribute([]byte("not a profile")); err == nil {
		t.Error("attribute accepted a non-gzip input")
	}
}
