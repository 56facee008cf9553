package experiments

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/workload"
)

// sameResult compares two results through a gob round trip of each, so
// a freshly simulated value and one decoded from disk compare equal
// despite gob's canonicalizations (empty slices decode as nil), while
// any real value drift — a changed number anywhere in the tree — does
// not.
func sameResult[T any](t *testing.T, a, b *T) bool {
	t.Helper()
	norm := func(p *T) *T {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		var out T
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

// entryFiles lists the cache's entry files, failing the test on error.
func entryFiles(t *testing.T, d *DiskCache) []string {
	t.Helper()
	ents, err := os.ReadDir(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, filepath.Join(d.Dir(), e.Name()))
	}
	return names
}

func newDiskEngine(t *testing.T, dir string) (*Engine, *DiskCache) {
	t.Helper()
	d, err := OpenDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(1)
	e.SetDisk(d)
	return e, d
}

// TestDiskCacheWarmIdentity runs grid, hold, and resilience trials
// cold, then again through a fresh engine over the same directory, and
// demands every warm result be served from disk with no value drift.
func TestDiskCacheWarmIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	keys := GridKeys([]workload.Kind{workload.Minprog, workload.Chess})
	ropts := ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: time.Minute}

	cold, cd := newDiskEngine(t, dir)
	coldTrials, err := cold.Trials(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	coldHold, err := cold.HoldTrial(cfg, workload.Minprog, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.ResilienceTrial(cfg, workload.Minprog, core.PureCopy, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cd.Stats(); st.Writes == 0 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want writes > 0 and no hits", st)
	}

	warm, wd := newDiskEngine(t, dir)
	warmTrials, err := warm.Trials(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	warmHold, err := warm.HoldTrial(cfg, workload.Minprog, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.ResilienceTrial(cfg, workload.Minprog, core.PureCopy, ropts)
	if err != nil {
		t.Fatal(err)
	}
	st := wd.Stats()
	if st.Misses != 0 || st.Rejects != 0 {
		t.Fatalf("warm stats = %+v, want every lookup served from disk", st)
	}
	if want := uint64(len(keys) + 2); st.Hits != want {
		t.Fatalf("warm hits = %d, want %d", st.Hits, want)
	}
	for i := range keys {
		if !sameResult(t, coldTrials[i], warmTrials[i]) {
			t.Errorf("%v: warm trial drifted from cold", keys[i])
		}
	}
	if !sameResult(t, coldHold, warmHold) {
		t.Error("warm hold trial drifted from cold")
	}
	if !sameResult(t, coldRes, warmRes) {
		t.Error("warm resilience trial drifted from cold")
	}
}

// TestTrialPathsAgreeOverRandomConfigs draws configs over the fields
// migsim exposes — the page store's dedup, compress, integrity and
// resume modes, the send window, outstanding fetches, and a drop plan
// with a retry policy — and gives each a cheap kind, a strategy and a
// prefetch. A direct RunTrial must equal a cold disk-backed engine's
// Trial, and a fresh engine over the same directory must then serve
// every cell from disk with the same result.
func TestTrialPathsAgreeOverRandomConfigs(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(21))
	kinds := []workload.Kind{workload.Minprog, workload.Chess, workload.PMEnd}
	strats := []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet}
	pfs := core.PrefetchValues()
	cfgs := make([]Config, n)
	keys := make([]GridKey, n)
	for i := range cfgs {
		c := &cfgs[i]
		c.Machine.Dedup.Enabled = rng.Intn(2) == 0
		c.Machine.Dedup.Compress = c.Machine.Dedup.Enabled && rng.Intn(2) == 0
		c.Machine.Dedup.Integrity = rng.Intn(2) == 0
		c.Machine.Dedup.Resume = rng.Intn(2) == 0
		c.Machine.Net.Window = []int{0, 4, 16}[rng.Intn(3)]
		c.Machine.Pager.Outstanding = []int{0, 2, 4}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			c.Faults = faults.FromDropRate(0.01+0.04*rng.Float64(), 0)
			c.Recovery = &ResilienceOptions{MaxRetries: 1 + rng.Intn(2), Degrade: rng.Intn(2) == 0, AckTimeout: 15 * time.Minute}
		}
		keys[i] = GridKey{kinds[rng.Intn(len(kinds))], strats[rng.Intn(len(strats))], pfs[rng.Intn(len(pfs))]}
	}

	dir := t.TempDir()
	cold, _ := newDiskEngine(t, dir)
	direct := make([]*TrialResult, n)
	for i, g := range keys {
		var err error
		direct[i], err = RunTrial(cfgs[i], g.Kind, g.Strategy, g.Prefetch)
		if err != nil {
			t.Fatalf("config %d %+v, %v: %v", i, cfgs[i].Machine, g, err)
		}
		memo, err := cold.Trial(cfgs[i], g.Kind, g.Strategy, g.Prefetch)
		if err != nil {
			t.Fatalf("config %d, %v: memoized: %v", i, g, err)
		}
		if !reflect.DeepEqual(direct[i], memo) {
			t.Errorf("config %d, %v: memoized trial differs from direct", i, g)
		}
	}

	warm, wd := newDiskEngine(t, dir)
	for i, g := range keys {
		got, err := warm.Trial(cfgs[i], g.Kind, g.Strategy, g.Prefetch)
		if err != nil {
			t.Fatalf("config %d, %v: disk-warm: %v", i, g, err)
		}
		if !sameResult(t, direct[i], got) {
			t.Errorf("config %d, %v: disk-warm trial differs from direct", i, g)
		}
	}
	if st := wd.Stats(); st.Misses != 0 || st.Rejects != 0 || st.Hits == 0 {
		t.Errorf("warm stats = %+v, want every cell served from disk", st)
	}
}

// TestDiskCacheCorruptionFallback truncates one on-disk entry and
// bit-flips another mid-file, then asserts a warm engine silently
// recomputes both without error or drift — and repairs the files, so a
// third engine is served entirely from disk again.
func TestDiskCacheCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	keys := []GridKey{
		{workload.Minprog, core.PureCopy, 0},
		{workload.Minprog, core.PureIOU, 0},
	}
	cold, _ := newDiskEngine(t, dir)
	coldTrials, err := cold.Trials(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}

	files := entryFiles(t, cold.Disk())
	if len(files) != 2 {
		t.Fatalf("entry files = %d, want 2", len(files))
	}
	// Truncate the first mid-payload.
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the second.
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(files[1], raw, 0o666); err != nil {
		t.Fatal(err)
	}

	warm, wd := newDiskEngine(t, dir)
	warmTrials, err := warm.Trials(cfg, keys)
	if err != nil {
		t.Fatalf("corrupt entries surfaced an error: %v", err)
	}
	for i := range keys {
		if !sameResult(t, coldTrials[i], warmTrials[i]) {
			t.Errorf("%v: recomputed trial drifted", keys[i])
		}
	}
	st := wd.Stats()
	if st.Rejects != 2 || st.Hits != 0 || st.Writes != 2 {
		t.Fatalf("warm stats = %+v, want both entries rejected, recomputed, and rewritten", st)
	}

	repaired, rd := newDiskEngine(t, dir)
	if _, err := repaired.Trials(cfg, keys); err != nil {
		t.Fatal(err)
	}
	if st := rd.Stats(); st.Hits != 2 || st.Rejects != 0 {
		t.Fatalf("post-repair stats = %+v, want both served from disk", st)
	}
}

// TestDiskCacheVariantsAreDistinct guards the filename keying: a grid
// trial, a hold trial and a resilience trial of the same (kind,
// strategy) must not collide.
func TestDiskCacheVariantsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	ropts := ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: time.Minute}
	cold, cd := newDiskEngine(t, dir)
	if _, err := cold.Trial(cfg, workload.Minprog, core.PureCopy, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.HoldTrial(cfg, workload.Minprog, core.PureCopy); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.ResilienceTrial(cfg, workload.Minprog, core.PureCopy, ropts); err != nil {
		t.Fatal(err)
	}
	if st := cd.Stats(); st.Writes != 3 {
		t.Fatalf("writes = %d, want 3 distinct entries", st.Writes)
	}
	if files := entryFiles(t, cd); len(files) != 3 {
		t.Fatalf("entry files = %d, want 3", len(files))
	}
}

// TestDiskCachePrune stores entries past a tiny size cap and asserts
// the oldest are evicted, the newest survive, and the directory ends up
// under the cap.
func TestDiskCachePrune(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) cacheKey { return cacheKey{fp: uint64(i), variant: variantGrid} }
	const n = 40
	for i := 0; i < n; i++ {
		d.store(key(i), &TrialResult{BytesTotal: 1})
		time.Sleep(2 * time.Millisecond) // distinct mtimes for eviction order
	}
	if got := d.scanSize(); got > 8192 {
		t.Fatalf("cache size %d exceeds cap 8192 after prune", got)
	}
	if _, ok := diskLoad[TrialResult](d, key(0)); ok {
		t.Error("oldest entry survived the prune")
	}
	if _, ok := diskLoad[TrialResult](d, key(n-1)); !ok {
		t.Error("newest entry was pruned")
	}
}

// TestDiskCacheSkipsErrors ensures failed trials are never persisted:
// an unknown workload kind errors cold and errors again warm.
func TestDiskCacheSkipsErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	bad := workload.Kind(99)
	cold, cd := newDiskEngine(t, dir)
	if _, err := cold.Trial(cfg, bad, core.PureCopy, 0); err == nil {
		t.Fatal("unknown workload did not error")
	}
	if st := cd.Stats(); st.Writes != 0 {
		t.Fatalf("failed trial was persisted (writes = %d)", st.Writes)
	}
	warm, wd := newDiskEngine(t, dir)
	if _, err := warm.Trial(cfg, bad, core.PureCopy, 0); err == nil {
		t.Fatal("unknown workload did not error warm")
	}
	if st := wd.Stats(); st.Hits != 0 {
		t.Fatalf("failed trial was served from disk (hits = %d)", st.Hits)
	}
}

// FuzzDecodeEntry feeds the disk-entry decoder arbitrary file bytes, and
// an arbitrary body wrapped in a valid frame so gob decoding is reached
// past the checksum. Decoding must never panic, and anything it does
// not accept is a miss: no value, and never a value from a bad frame.
// The seed corpus in testdata/fuzz holds a real Minprog pure-copy entry
// and damaged variants of it.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, body []byte) {
		if v, ok := decodeEntry[TrialResult](raw); ok != (v != nil) {
			t.Fatalf("decodeEntry(raw) = %v, %v", v, ok)
		} else if ok && !bytes.Equal(raw, frameEntry(raw[24:])) {
			t.Fatal("decoded an entry with a corrupt frame")
		}
		if v, ok := decodeEntry[TrialResult](frameEntry(body)); ok != (v != nil) {
			t.Fatalf("decodeEntry(framed body) = %v, %v", v, ok)
		}
	})
}
