package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// A child process of the benchmark binary does one of three things: set
// a workload up and exit (a set-up sample), run one rep, or run the
// probes. Every rep gets a fresh process, so reps share no heap and no
// process-global state, and whatever a rep leaves behind in memory dies
// with it.

// repReport is one rep as its child measured it.
type repReport struct {
	WallS    float64  `json:"wall_s"`
	CPUS     float64  `json:"cpu_s"`
	Counters counters `json:"counters,omitempty"`
	Digest   string   `json:"digest,omitempty"`
	Err      string   `json:"err,omitempty"`

	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`

	// Traced reps only.
	Traced  bool             `json:"traced,omitempty"`
	LayerNs map[string]int64 `json:"layer_ns,omitempty"`
	ProfNs  int64            `json:"prof_ns,omitempty"` // all profiled CPU, attributed or not
	Profile []byte           `json:"profile,omitempty"`
	Spans   []span           `json:"spans,omitempty"`
}

// span is one timed call into a layer, recorded around the public API
// the benchmark drives.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Rep     int     `json:"rep"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// spans keeps a traced rep's spans in memory until the rep ends. A nil
// *spans records nothing, so untraced reps pay only the nil check.
type spans struct {
	t0   time.Time
	cur  string
	list []span
}

func (s *spans) do(name string, fn func() error) error {
	if s == nil {
		return fn()
	}
	parent := s.cur
	s.cur = name
	start := time.Now()
	err := fn()
	s.list = append(s.list, span{
		Name: name, Parent: parent,
		StartUs: us(start.Sub(s.t0)), DurUs: us(time.Since(start)),
	})
	s.cur = parent
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runChild is a child's whole life. Its last line of output is its
// report; an error means it has none.
func runChild(o options) error {
	runtime.GOMAXPROCS(threads)
	if o.probes {
		c, err := probes(o.workdir)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		return json.NewEncoder(os.Stdout).Encode(c)
	}
	s, ok := findSpec(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	w, err := s.open(runConfig{seed: o.seed, golden: goldenPath, cacheDir: o.cacheDir, fill: o.setupOnly})
	if err != nil {
		return err
	}
	if o.setupOnly {
		fmt.Println("ready")
		return json.NewEncoder(os.Stdout).Encode(setupCounters(w))
	}
	r, err := doRep(w, o.trace == 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// setupCounters are the per-layer values set-up itself produces.
func setupCounters(w bench) counters {
	if p, ok := w.(*paper); ok && p.warm {
		return counters{"experiments.disk_writes": float64(p.fillWrites)}
	}
	return counters{}
}

// doRep runs one rep and measures its wall time, CPU and allocation. A
// traced rep is also profiled and keeps its spans. The returned error is
// only for the tracing machinery, since a failed check is part of the
// report.
func doRep(w bench, traced bool) (*repReport, error) {
	var sp *spans
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		sp = &spans{t0: time.Now()}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	c0, t0 := cpuTime(), time.Now()
	var c counters
	var sum string
	err := sp.do("rep", func() error {
		var err error
		c, sum, err = w.rep(sp)
		return err
	})
	r := &repReport{WallS: time.Since(t0).Seconds(), CPUS: (cpuTime() - c0).Seconds(), Counters: c, Digest: sum}
	runtime.ReadMemStats(&m1)
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	r.GCCycles = float64(m1.NumGC - m0.NumGC)
	if err != nil {
		r.Err = err.Error()
	}
	if !traced {
		return r, nil
	}
	pprof.StopCPUProfile()
	r.Traced = true
	r.Spans = sp.list
	r.Profile = prof.Bytes()
	a, err := attribute(r.Profile)
	if err != nil {
		return nil, err
	}
	r.LayerNs, r.ProfNs = a.nanos, a.total
	return r, nil
}
