package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/workload"
)

// sameResult compares two results through an entry-codec round trip of
// each, so a freshly simulated value and one decoded from disk compare
// equal despite the codec's canonicalizations (empty slices decode as
// nil, unexported fields as zero), while any real value drift — a
// changed number anywhere in the tree — does not.
func sameResult[T any](t *testing.T, a, b *T) bool {
	t.Helper()
	norm := func(p *T) *T {
		v, ok := decodeEntry[T](frameEntry(encodeEntry(p)))
		if !ok {
			t.Fatalf("%T does not survive an entry round trip", p)
		}
		return v
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

// TestDiskCacheWarmIdentity runs grid and resilience trials and the
// fault costs cold, then again through a fresh engine over the same
// directory, and demands every warm result be served from disk with no
// value drift.
func TestDiskCacheWarmIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}
	keys := GridKeys([]workload.Kind{workload.Minprog, workload.Chess})
	rcfg := Config{Recovery: &ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: time.Minute}}

	cold, cd := newDiskEngine(t, dir)
	coldTrials, err := cold.Trials(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.ResilienceTrial(rcfg, workload.Minprog, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	coldFaults, err := cold.FaultCosts(cfg)
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
	warmRes, err := warm.ResilienceTrial(rcfg, workload.Minprog, core.PureCopy)
	if err != nil {
		t.Fatal(err)
	}
	warmFaults, err := warm.FaultCosts(cfg)
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
	if !sameResult(t, coldRes, warmRes) {
		t.Error("warm resilience trial drifted from cold")
	}
	if *warmFaults != *coldFaults {
		t.Errorf("warm fault costs %+v drifted from cold %+v", *warmFaults, *coldFaults)
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

// TestPaperHarnessesMeasureThroughDefault checks that Table 4-1
// measures nothing and that Summarize takes its fault probe through the
// default engine: with a disk cache attached, Table41 leaves the engine
// and the disk empty, and Summarize writes one entry, which a second
// pass hits.
func TestPaperHarnessesMeasureThroughDefault(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	Default.Reset()
	Default.SetDisk(d)
	t.Cleanup(func() {
		Default.SetDisk(nil)
		Default.Reset()
	})
	if _, err := Table41(Config{}); err != nil {
		t.Fatal(err)
	}
	if n, st := Default.CachedCells(), d.Stats(); n != 0 || st != (DiskStats{}) {
		t.Fatalf("Table41 left %d cached cells and disk stats %+v, want none", n, st)
	}
	summarize := func() {
		t.Helper()
		if _, err := Summarize(Config{}, &Grid{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	summarize()
	if st := d.Stats(); st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("first pass stats = %+v, want 1 write and no hits", st)
	}
	Default.Reset()
	summarize()
	if st := d.Stats(); st.Hits != 1 || st.Writes != 1 {
		t.Fatalf("second pass stats = %+v, want 1 hit and no new write", st)
	}
}

// TestDiskCacheVariantsAreDistinct guards the filename keying: a grid
// trial and a resilience trial of the same config, kind and strategy
// must not collide.
func TestDiskCacheVariantsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Recovery: &ResilienceOptions{MaxRetries: 1, Degrade: true, AckTimeout: time.Minute}}
	cold, cd := newDiskEngine(t, dir)
	if _, err := cold.Trial(cfg, workload.Minprog, core.PureCopy, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.ResilienceTrial(cfg, workload.Minprog, core.PureCopy); err != nil {
		t.Fatal(err)
	}
	if st := cd.Stats(); st.Writes != 2 {
		t.Fatalf("writes = %d, want 2 distinct entries", st.Writes)
	}
	if files := entryFiles(t, cd); len(files) != 2 {
		t.Fatalf("entry files = %d, want 2", len(files))
	}
}

// TestDiskCachePrune stores entries past a size cap of ten entries and
// asserts the oldest are evicted, the newest survive, and the directory
// ends up under the cap.
func TestDiskCachePrune(t *testing.T) {
	entry := &TrialResult{BytesTotal: 1}
	maxBytes := int64(10 * len(frameEntry(encodeEntry(entry))))
	d, err := OpenDiskCache(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) cacheKey { return cacheKey{fp: uint64(i), variant: variantGrid} }
	const n = 40
	for i := 0; i < n; i++ {
		d.store(key(i), entry)
		time.Sleep(2 * time.Millisecond) // distinct mtimes for eviction order
	}
	if got := d.scanSize(); got > maxBytes {
		t.Fatalf("cache size %d exceeds cap %d after prune", got, maxBytes)
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

// fillExported sets every exported field reachable from v, which must
// be settable, to a non-zero value: each integer and string distinct,
// each bool true. With elems > 0, pointers point at filled values and
// slices hold elems filled elements; otherwise pointers stay nil and
// slices are empty (elems 0) or nil (elems < 0). A codec that drops a
// field decodes it as zero, which no filled field is.
func fillExported(t *testing.T, v reflect.Value, n *int, elems int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillExported(t, v.Field(i), n, elems)
			}
		}
	case reflect.Pointer:
		if elems > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillExported(t, v.Elem(), n, elems)
		}
	case reflect.Slice:
		if elems >= 0 {
			v.Set(reflect.MakeSlice(v.Type(), elems, elems))
			for i := 0; i < elems; i++ {
				fillExported(t, v.Index(i), n, elems)
			}
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d·", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*n++
		x := int64(*n) << 40 // a multi-byte varint, negative every other field
		if *n%2 == 1 {
			x = -x
		}
		if v.OverflowInt(x) {
			x = int64(*n)
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*n++
		x := uint64(*n)<<56 | uint64(*n)
		if v.OverflowUint(x) {
			x = uint64(*n)
		}
		v.SetUint(x)
	default:
		t.Fatalf("fillExported: no value for %v", v.Type())
	}
}

// roundTrip checks that a value of T filled with elems survives an
// entry round trip as one filled with wantElems, and that no proper
// prefix of its body, nor the body with a byte appended, decodes.
func roundTrip[T any](t *testing.T, elems, wantElems int) {
	t.Helper()
	var in, want T
	var n, wn int
	fillExported(t, reflect.ValueOf(&in).Elem(), &n, elems)
	fillExported(t, reflect.ValueOf(&want).Elem(), &wn, wantElems)
	body := encodeEntry(&in)
	got, ok := decodeEntry[T](frameEntry(body))
	if !ok {
		t.Fatalf("%T (elems %d): round trip rejected its own entry", in, elems)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("%T (elems %d): round trip gave\n%+v\nwant\n%+v", in, elems, *got, want)
	}
	for i := 0; i < len(body); i++ {
		if _, ok := decodeEntry[T](frameEntry(body[:i])); ok {
			t.Errorf("%T (elems %d): a %d-byte prefix of the %d-byte body decoded", in, elems, i, len(body))
		}
	}
	if _, ok := decodeEntry[T](frameEntry(append(body, 0))); ok {
		t.Errorf("%T (elems %d): a body with a trailing byte decoded", in, elems)
	}
}

// TestEntryCodecRoundTrip sets every exported field of each cached
// result type and of everything it embeds, and demands the value back
// from an entry: full (pointers set, slices of two) and sparse (nil
// pointers, empty slices, which come back nil).
func TestEntryCodecRoundTrip(t *testing.T) {
	roundTrip[TrialResult](t, 2, 2)
	roundTrip[TrialResult](t, 0, -1)
	roundTrip[ResilienceOutcome](t, 2, 2)
	roundTrip[ResilienceOutcome](t, 0, -1)
	roundTrip[FaultCosts](t, 2, 2)
}

// TestEntryCountBoundsAllocation gives a grid-trial body a rate series
// of a million points and a few bytes to fill them: the decoder must
// refuse it before making the slice.
func TestEntryCountBoundsAllocation(t *testing.T) {
	body := encodeEntry(&TrialResult{})
	// Seven scalar fields and the nil Report, one byte each, then
	// Series' length.
	if len(body) < 9 || body[3] != 0 || body[8] != 0 {
		t.Fatalf("zero TrialResult body = %x, want eight one-byte fields and an empty Series", body)
	}
	huge := append(binary.AppendUvarint(body[:8:8], 1<<20), body[9:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := decodeEntry[TrialResult](frameEntry(huge))
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("decoded a million rate points from %d bytes", len(huge))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the length allocated %d bytes", grew)
	}
}

// TestShapeDigestNamesTheLayout checks that the cache subdirectory
// follows the shape of the cached types: adding, renaming, reordering
// or retyping an exported field, at the top or nested, names another
// subdirectory, while an unexported field, which no entry carries, does
// not.
func TestShapeDigestNamesTheLayout(t *testing.T) {
	type inner struct{ A, B int }
	type innerWide struct{ A, B, C int }
	type base struct {
		N  int
		S  string
		In inner
		P  *inner
		L  []inner
	}
	type hidden struct {
		N  int
		S  string
		In inner
		P  *inner
		L  []inner
		x  bool
	}
	variants := map[string]reflect.Type{
		"added": reflect.TypeFor[struct {
			N  int
			S  string
			In inner
			P  *inner
			L  []inner
			X  bool
		}](),
		"renamed": reflect.TypeFor[struct {
			M  int
			S  string
			In inner
			P  *inner
			L  []inner
		}](),
		"reordered": reflect.TypeFor[struct {
			S  string
			N  int
			In inner
			P  *inner
			L  []inner
		}](),
		"retyped": reflect.TypeFor[struct {
			N  uint
			S  string
			In inner
			P  *inner
			L  []inner
		}](),
		"nested": reflect.TypeFor[struct {
			N  int
			S  string
			In innerWide
			P  *inner
			L  []inner
		}](),
		"pointer": reflect.TypeFor[struct {
			N  int
			S  string
			In inner
			P  *innerWide
			L  []inner
		}](),
		"slice": reflect.TypeFor[struct {
			N  int
			S  string
			In inner
			P  *inner
			L  []innerWide
		}](),
	}
	subdir := func(ty reflect.Type) string {
		_, shape := compileCodecs(reflect.TypeFor[TrialResult](), ty)
		return cacheSubdir(shape)
	}
	seen := map[string]string{subdir(reflect.TypeFor[base]()): "base"}
	for name, ty := range variants {
		d := subdir(ty)
		if other, ok := seen[d]; ok {
			t.Errorf("%s and %s share subdirectory %s", name, other, d)
		}
		seen[d] = name
	}
	if subdir(reflect.TypeFor[hidden]()) != subdir(reflect.TypeFor[base]()) {
		t.Error("an unexported field changed the subdirectory")
	}
	if _, shape := entryCodecs(); !strings.HasPrefix(cacheSubdir(shape), fmt.Sprintf("e%d-", memoEpoch)) {
		t.Errorf("subdirectory %s does not start with the epoch", cacheSubdir(shape))
	}
}

// decodesAs decodes raw as a T entry, failing t if the decoder reports
// a value without ok or ok without a value, and reports whether it
// decoded.
func decodesAs[T any](t *testing.T, raw []byte) bool {
	v, ok := decodeEntry[T](raw)
	if ok != (v != nil) {
		t.Fatalf("decodeEntry[%v] = %v, %v", reflect.TypeFor[T](), v, ok)
	}
	return ok
}

// entryDecoders holds decodesAs for every cached result type.
var entryDecoders = map[reflect.Type]func(*testing.T, []byte) bool{
	reflect.TypeFor[TrialResult]():       decodesAs[TrialResult],
	reflect.TypeFor[ResilienceOutcome](): decodesAs[ResilienceOutcome],
	reflect.TypeFor[FaultCosts]():        decodesAs[FaultCosts],
}

// FuzzDecodeEntry feeds the disk-entry decoder arbitrary file bytes, and
// an arbitrary body wrapped in a valid frame so the entry codec is
// reached past the checksum, and decodes each as every type entryCodecs
// compiles. Decoding must never panic, and anything it does not accept
// is a miss: no value, and never a value from a bad frame. The seed
// corpus in testdata/fuzz holds a real Minprog pure-copy entry, damaged
// variants of it, a real fault-costs entry, and a real Minprog entry of
// vm.Usage (valid-usage), a type the cache no longer holds: a
// well-framed body of another layout, which each cached type refuses.
func FuzzDecodeEntry(f *testing.F) {
	codecs, _ := entryCodecs()
	for typ := range codecs {
		if entryDecoders[typ] == nil {
			f.Fatalf("entryDecoders has no decoder for the cached type %v", typ)
		}
	}
	f.Fuzz(func(t *testing.T, raw, body []byte) {
		for typ, decodes := range entryDecoders {
			if decodes(t, raw) && !bytes.Equal(raw, frameEntry(raw[24:])) {
				t.Fatalf("decoded a %v entry with a corrupt frame", typ)
			}
			decodes(t, frameEntry(body))
		}
	})
}
