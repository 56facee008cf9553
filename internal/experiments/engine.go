package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"

	"accentmig/internal/core"
	"accentmig/internal/obs"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

// Engine schedules migration trials across a pool of OS goroutines and
// memoizes their results. Every trial runs on its own fully independent
// sim.Kernel, so trials can execute concurrently without sharing any
// simulation state; determinism is preserved because each trial's
// outcome depends only on (Config, workload, strategy, prefetch) — never
// on what ran beside it. The cache is keyed by a fingerprint of the
// Config plus the trial coordinates, so every table, figure, and summary
// that needs the same cell reuses one simulated result instead of
// re-running it. Beside the trials (grid, resilience and shard-stress),
// the engine memoizes the two measurements the paper's tables take
// without migrating: an installed workload's address-space composition
// (Usage, Table 4-1) and the single-fault costs (FaultCosts, the
// summary's §4.3.3 probe).
//
// Work driven with a flight-recorder sink installed bypasses the cache
// (a cached result would silently emit no trace events) and runs on one
// worker, so the sink sees one trial at a time, in cell order, at any
// pool width.
type Engine struct {
	// workers is the pool width; <= 0 selects runtime.GOMAXPROCS(0).
	workers int

	// disk, when non-nil, is the persistent second level of the cache:
	// owners consult it before simulating and write freshly computed
	// results behind. Install it before running experiments.
	disk *DiskCache

	mu    sync.Mutex
	cache map[cacheKey]*cacheEntry
}

// cacheKey addresses one memoized result. variant names the memoized
// method, and with it the result type, so entries of two types never
// share a key or a disk file name.
type cacheKey struct {
	fp      uint64
	variant uint8
	GridKey
}

const (
	variantGrid uint8 = iota
	variantResilience
	variantShard
	variantUsage
	variantFaultCosts
)

// cacheEntry is a single-flight slot: the first requester computes, any
// concurrent or later requester blocks on done and shares the result.
// val holds the *T of whichever memoized method owns the key's variant.
type cacheEntry struct {
	done chan struct{}
	val  any
	err  error
}

// NewEngine returns an engine with the given worker-pool width
// (<= 0 selects runtime.GOMAXPROCS(0)) and an empty cache.
func NewEngine(workers int) *Engine {
	return &Engine{workers: workers, cache: make(map[cacheKey]*cacheEntry)}
}

// Default is the process-wide engine the package-level experiment
// harnesses (RunGrid, Table41..45, Figure45, Summarize) share, so one
// `migsim -exp all` sweep simulates each grid cell exactly once.
var Default = NewEngine(0)

// SetWorkers sets the default engine's pool width (<= 0 restores the
// GOMAXPROCS default). Call it before running experiments.
func SetWorkers(n int) { Default.workers = n }

// SetDisk attaches (or with nil detaches) a persistent disk cache as
// the engine's second level. Call it before running experiments; the
// field is read without locking by the worker pool.
func (e *Engine) SetDisk(d *DiskCache) { e.disk = d }

// Disk reports the attached persistent cache, if any.
func (e *Engine) Disk() *DiskCache { return e.disk }

// Workers reports the resolved pool width.
func (e *Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Reset drops every cached result. Benchmarks use it to force
// re-simulation; experiment code never needs it.
func (e *Engine) Reset() {
	e.mu.Lock()
	e.cache = make(map[cacheKey]*cacheEntry)
	e.mu.Unlock()
}

// CachedCells reports how many results the cache currently holds.
func (e *Engine) CachedCells() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// fingerprint hashes everything about a Config that can influence a
// trial's outcome: the machine and link configs, the migration tuning
// (core.DefaultTuning), and the process-wide base seed perturbing the
// workload reference traces. The calibration constants are not config
// values, so a change to one must bump memoEpoch instead. The Sink is
// deliberately excluded — it observes a trial without affecting it —
// and sink-carrying configs skip the cache anyway. The fingerprint also keys the persistent disk cache, so it
// must be stable across processes: every nested config struct is a
// plain value type (no pointers, maps, or funcs), which makes the %#v
// rendering a canonical form for a fixed Go version — and the disk
// cache namespaces its entries by Go version precisely so that a
// toolchain change (or a struct change, which alters the rendering and
// hence the fingerprint) can never revive a stale entry.
func (c Config) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v|%#v|%#v|%d", c.Machine, c.Link, core.DefaultTuning(), xrand.BaseSeed())
	if c.Faults != nil {
		fmt.Fprintf(h, "|%#v", *c.Faults)
	}
	if c.Recovery != nil {
		fmt.Fprintf(h, "|R%#v", *c.Recovery)
	}
	return h.Sum64()
}

// memo returns the memoized result for key, computing it with run on
// this goroutine if no one has yet. Concurrent requesters of one key
// share a single computation. The owner consults the disk level before
// running, and writes a freshly computed result behind only after the
// waiters are released. Errors are never stored on disk: a failed trial
// re-runs next process. Work that records to a sink runs uncached, so
// its flight-recorder stream is always emitted.
func memo[T any](e *Engine, sink obs.Sink, key cacheKey, run func() (*T, error)) (*T, error) {
	if sink != nil {
		return run()
	}
	e.mu.Lock()
	if ent, ok := e.cache[key]; ok {
		e.mu.Unlock()
		<-ent.done
		return ent.val.(*T), ent.err
	}
	ent := &cacheEntry{done: make(chan struct{})}
	e.cache[key] = ent
	e.mu.Unlock()

	if v, ok := diskLoad[T](e.disk, key); ok {
		ent.val = v
		close(ent.done)
		return v, nil
	}
	v, err := run()
	ent.val, ent.err = v, err
	close(ent.done)
	if err == nil && e.disk != nil {
		e.disk.store(key, v)
	}
	return v, err
}

// Trial returns the memoized result for one grid cell, simulating it on
// this goroutine if no one has yet.
func (e *Engine) Trial(cfg Config, k workload.Kind, s core.Strategy, pf int) (*TrialResult, error) {
	return e.trial(cfg.fingerprint(), cfg, GridKey{k, s, pf})
}

// trial is Trial with the config fingerprint supplied by the caller,
// so sweeps hash the config once instead of once per cell.
func (e *Engine) trial(fp uint64, cfg Config, g GridKey) (*TrialResult, error) {
	return memo(e, cfg.Sink, cacheKey{fp: fp, variant: variantGrid, GridKey: g}, func() (*TrialResult, error) {
		return RunTrial(cfg, g.Kind, g.Strategy, g.Prefetch)
	})
}

// ResilienceTrial is the memoized form of RunResilienceTrial. The
// config fingerprint covers the retry policy (cfg.Recovery), so sweeps
// varying retry budgets over one fault plan stay distinct.
func (e *Engine) ResilienceTrial(cfg Config, k workload.Kind, s core.Strategy) (*ResilienceOutcome, error) {
	return memo(e, cfg.Sink, cacheKey{fp: cfg.fingerprint(), variant: variantResilience, GridKey: GridKey{k, s, 0}}, func() (*ResilienceOutcome, error) {
		return RunResilienceTrial(cfg, k, s)
	})
}

// ShardTrial is the memoized form of RunShardStress. Only the
// deterministic result is cached; the host-side perf figures are a
// property of one run and never stored. The worker count is erased
// from the key — the scenario's results are byte-identical at any
// Shards value, so a cached entry serves every execution mode. The
// process-wide base seed joins the key because the scenario's decision
// streams derive from it.
func (e *Engine) ShardTrial(o ShardStressOptions) (*ShardStressResult, error) {
	o = o.withDefaults()
	keyOpts := o
	keyOpts.Shards = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "shardstress|%d|%#v", xrand.BaseSeed(), keyOpts)
	return memo(e, nil, cacheKey{fp: h.Sum64(), variant: variantShard}, func() (*ShardStressResult, error) {
		res, _, err := RunShardStress(o)
		return res, err
	})
}

// Usage is the memoized address-space composition of workload k
// installed on a fresh testbed: what Table 4-1 prints for it.
func (e *Engine) Usage(cfg Config, k workload.Kind) (*vm.Usage, error) {
	return memo(e, cfg.Sink, cacheKey{fp: cfg.fingerprint(), variant: variantUsage, GridKey: GridKey{Kind: k}}, func() (*vm.Usage, error) {
		tb := NewTestbed(cfg)
		defer tb.K.Close()
		b, err := workload.Build(tb.Src, k)
		if err != nil {
			return nil, err
		}
		u := b.Proc.AS.Usage()
		return &u, nil
	})
}

// FaultCosts is the memoized form of MeasureFaultCosts.
func (e *Engine) FaultCosts(cfg Config) (*FaultCosts, error) {
	return memo(e, cfg.Sink, cacheKey{fp: cfg.fingerprint(), variant: variantFaultCosts}, func() (*FaultCosts, error) {
		return MeasureFaultCosts(cfg)
	})
}

// fanOut runs fn(i) for i in [0, n) on the engine's worker pool and
// blocks until all complete. Work that records to a sink runs on one
// worker, in index order, so no sink is written from two goroutines and
// its stream is the same at any pool width. Work is claimed in
// contiguous batches — one shared-counter bump per batch instead of per
// item — so sweeps of sub-millisecond memoized cells are not dominated
// by cross-core contention on the dispatch counter. Batches stay small
// relative to n/w to keep the tail balanced when cell costs are skewed.
//
// Each cell ends with a yield to the Go scheduler: a trial's procs hand
// off as coroutines, which never enter it, so on one P a collection's
// mark worker would wait for the 10 ms preemption tick while the trial
// allocates on, and the overrun doubles the next heap goal.
func (e *Engine) fanOut(sink obs.Sink, n int, fn func(i int)) {
	w := e.Workers()
	if sink != nil {
		w = 1
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			runtime.Gosched()
		}
		return
	}
	batch := n / (4 * w)
	if batch < 1 {
		batch = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// sweep runs fn over cells on the engine's worker pool (one worker when
// the cells record to sink) and returns the results in cell order. On
// error the first failure in cell order is reported.
func sweep[C, T any](e *Engine, sink obs.Sink, cells []C, fn func(C) (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	errs := make([]error, len(cells))
	e.fanOut(sink, len(cells), func(i int) { out[i], errs[i] = fn(cells[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Trials simulates the given grid cells concurrently (memoized) and
// returns their results in key order. On error the first failure in key
// order is reported.
func (e *Engine) Trials(cfg Config, keys []GridKey) ([]*TrialResult, error) {
	fp := cfg.fingerprint() // hashed once for the whole sweep
	return sweep(e, cfg.Sink, keys, func(g GridKey) (*TrialResult, error) { return e.trial(fp, cfg, g) })
}

// GridKeys enumerates the full paper grid for the given workloads in
// the canonical order: pure-copy once per workload, then IOU and RS at
// each prefetch value.
func GridKeys(kinds []workload.Kind) []GridKey {
	var keys []GridKey
	for _, k := range kinds {
		keys = append(keys, GridKey{k, core.PureCopy, 0})
		for _, strat := range []core.Strategy{core.PureIOU, core.ResidentSet} {
			for _, pf := range core.PrefetchValues() {
				keys = append(keys, GridKey{k, strat, pf})
			}
		}
	}
	return keys
}

// RunGrid sweeps the full paper grid on the worker pool, reusing any
// cells the cache already holds.
func (e *Engine) RunGrid(cfg Config, kinds []workload.Kind) (*Grid, error) {
	keys := GridKeys(kinds)
	trs, err := e.Trials(cfg, keys)
	if err != nil {
		return nil, err
	}
	g := &Grid{Cells: make(map[GridKey]*TrialResult, len(keys))}
	for i, key := range keys {
		g.Cells[key] = trs[i]
	}
	return g, nil
}

// RunGridSeq sweeps the full paper grid strictly sequentially on the
// calling goroutine with no memoization — the reference for the
// parallel-equals-sequential determinism contract, and the baseline for
// speedup measurements.
func RunGridSeq(cfg Config, kinds []workload.Kind) (*Grid, error) {
	g := &Grid{Cells: make(map[GridKey]*TrialResult)}
	for _, key := range GridKeys(kinds) {
		tr, err := RunTrial(cfg, key.Kind, key.Strategy, key.Prefetch)
		if err != nil {
			return nil, err
		}
		g.Cells[key] = tr
	}
	return g, nil
}
