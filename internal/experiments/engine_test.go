package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"accentmig/internal/core"
	"accentmig/internal/obs"
	"accentmig/internal/workload"
)

// TestMemoSingleFlight has many goroutines request one key at once:
// run executes exactly once and every caller receives its pointer.
func TestMemoSingleFlight(t *testing.T) {
	const n = 16
	e := NewEngine(0)
	key := cacheKey{fp: 1, variant: variantGrid}
	var started, runs atomic.Int32
	allStarted := make(chan struct{})
	run := func() (*TrialResult, error) {
		runs.Add(1)
		// Hold the computation open until every requester is on its way.
		<-allStarted
		return &TrialResult{BytesTotal: 7}, nil
	}
	got := make([]*TrialResult, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if started.Add(1) == n {
				close(allStarted)
			}
			v, err := memo(e, nil, key, run)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("run executed %d times, want 1", r)
	}
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, want the shared %p", i, v, got[0])
		}
	}
	if c := e.CachedCells(); c != 1 {
		t.Fatalf("cached cells = %d, want 1", c)
	}
}

// TestParallelGridMatchesSequential is the engine's centerpiece
// invariant: a grid swept on a wide worker pool must be deep-equal to
// the same grid swept strictly sequentially, because every trial runs
// on its own kernel and depends only on its own inputs. Run under
// -race this also proves the trials share no simulation state.
func TestParallelGridMatchesSequential(t *testing.T) {
	kinds := []workload.Kind{workload.Minprog, workload.LispDel}
	seq, err := RunGridSeq(Config{}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(8).RunGrid(Config{}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: seq %d, par %d", len(seq.Cells), len(par.Cells))
	}
	for key, want := range seq.Cells {
		got := par.Cells[key]
		if got == nil {
			t.Fatalf("%+v: missing from parallel grid", key)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: parallel result differs from sequential\nseq: %+v\npar: %+v", key, want, got)
		}
	}
}

// TestEngineMemoizesTrials verifies the result cache: asking the same
// engine for the same cell twice must return the identical object, not
// a re-simulation.
func TestEngineMemoizesTrials(t *testing.T) {
	e := NewEngine(2)
	tr1, err := e.Trial(Config{}, workload.Minprog, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := e.Trial(Config{}, workload.Minprog, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("second Trial call re-simulated instead of hitting the cache")
	}
	if n := e.CachedCells(); n != 1 {
		t.Errorf("CachedCells = %d, want 1", n)
	}
}

// TestEngineDistinguishesConfigs verifies the config fingerprint: the
// same cell under different link bandwidths must be simulated twice and
// yield different transfer times.
func TestEngineDistinguishesConfigs(t *testing.T) {
	e := NewEngine(1)
	slow := Config{}
	fast := Config{}
	fast.Link.BytesPerSecond = 37_500_000
	trSlow, err := e.Trial(slow, workload.Minprog, core.PureCopy, 0)
	if err != nil {
		t.Fatal(err)
	}
	trFast, err := e.Trial(fast, workload.Minprog, core.PureCopy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trSlow == trFast {
		t.Fatal("different configs shared one cache entry")
	}
	if trFast.Report.RIMASTransfer >= trSlow.Report.RIMASTransfer {
		t.Errorf("fast link transfer %v not faster than slow %v",
			trFast.Report.RIMASTransfer, trSlow.Report.RIMASTransfer)
	}
	if n := e.CachedCells(); n != 2 {
		t.Errorf("CachedCells = %d, want 2", n)
	}
}

// filledDisk returns a disk cache that an untraced engine has filled
// by running fill, and its stats after the fill: a traced engine that
// attaches it must neither read nor write it.
func filledDisk(t *testing.T, fill func(*Engine) error) (*DiskCache, DiskStats) {
	t.Helper()
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewEngine(1)
	warm.SetDisk(d)
	if err := fill(warm); err != nil {
		t.Fatal(err)
	}
	return d, d.Stats()
}

// TestEngineTracesEachTrialOnce verifies that a traced trial is
// simulated and traced on its first request and served from memory
// after it, so a second request writes no events, and that a disk
// cache attached under a sink is neither read nor written.
func TestEngineTracesEachTrialOnce(t *testing.T) {
	d, filled := filledDisk(t, func(e *Engine) error {
		_, err := e.Trial(Config{}, workload.Minprog, core.PureIOU, 0)
		return err
	})
	e := NewEngine(1)
	e.SetDisk(d)
	mem := obs.NewMemorySink()
	cfg := Config{Sink: mem}
	tr1, err := e.Trial(cfg, workload.Minprog, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	n1 := mem.Len()
	if n1 == 0 {
		t.Fatal("traced trial emitted no events")
	}
	tr2, err := e.Trial(cfg, workload.Minprog, core.PureIOU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("second traced request re-simulated instead of hitting the memo")
	}
	if got := mem.Len() - n1; got != 0 {
		t.Errorf("memo hit emitted %d events, want 0", got)
	}
	if n := e.CachedCells(); n != 1 {
		t.Errorf("CachedCells = %d after traced trials, want 1", n)
	}
	if got := d.Stats(); got != filled {
		t.Errorf("disk stats %+v under a sink, want %+v: traced work must neither read nor write the disk", got, filled)
	}
}

// TestEngineMemoizesFaultCosts verifies that a second request for the
// fault costs returns the first result, not a re-measurement.
func TestEngineMemoizesFaultCosts(t *testing.T) {
	e := NewEngine(1)
	fc1, err := e.FaultCosts(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := e.FaultCosts(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fc1 != fc2 {
		t.Error("second FaultCosts call re-measured instead of hitting the cache")
	}
	if n := e.CachedCells(); n != 1 {
		t.Errorf("CachedCells = %d, want 1", n)
	}
}

// TestEngineTracesFaultCostsOnce is TestEngineTracesEachTrialOnce for
// the one measurement that does not migrate: under a Sink the fault
// probe is measured once and emits its events on the first call only,
// and the disk is neither read nor written.
func TestEngineTracesFaultCostsOnce(t *testing.T) {
	d, filled := filledDisk(t, func(e *Engine) error {
		_, err := e.FaultCosts(Config{})
		return err
	})
	e := NewEngine(1)
	e.SetDisk(d)
	mem := obs.NewMemorySink()
	cfg := Config{Sink: mem}
	fc1, err := e.FaultCosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n1 := mem.Len()
	if n1 == 0 {
		t.Fatal("traced fault probe emitted no events")
	}
	fc2, err := e.FaultCosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fc1 != fc2 {
		t.Error("second traced FaultCosts call re-measured instead of hitting the memo")
	}
	if got := mem.Len() - n1; got != 0 {
		t.Errorf("memo hit of the fault probe emitted %d events, want 0", got)
	}
	if n := e.CachedCells(); n != 1 {
		t.Errorf("CachedCells = %d after traced calls, want 1", n)
	}
	if got := d.Stats(); got != filled {
		t.Errorf("disk stats %+v under a sink, want %+v: traced work must neither read nor write the disk", got, filled)
	}
}

// TestGridKeysShape pins the sweep enumeration the figures rely on:
// per workload one pure-copy cell plus IOU and RS at every prefetch
// value, in chart order.
func TestGridKeysShape(t *testing.T) {
	kinds := []workload.Kind{workload.Minprog, workload.Chess}
	keys := GridKeys(kinds)
	perKind := 1 + 2*len(core.PrefetchValues())
	if len(keys) != perKind*len(kinds) {
		t.Fatalf("len(keys) = %d, want %d", len(keys), perKind*len(kinds))
	}
	if keys[0] != (GridKey{workload.Minprog, core.PureCopy, 0}) {
		t.Errorf("first key = %+v", keys[0])
	}
	seen := map[GridKey]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate key %+v", k)
		}
		seen[k] = true
	}
}
