package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// memoEpoch is the on-disk schema version of a cached result (a grid
// or resilience trial, or the fault costs). Bump it whenever the entry
// encoding (entryCodec), the variant numbering in the file name, or the
// simulation's observable semantics change in a way neither the config
// fingerprint nor the shape digest can see — a changed calibration
// constant (DESIGN.md §3 tables them; netmsg's fragCPU or
// vm.HashPerPageCPU, say) is one, since constants are not config
// fields. A changed, added or removed result type needs no bump: its
// shape digest is part of the subdirectory name (cacheSubdir). Entries
// of an older epoch, Go version or shape become unreachable, since they
// live in a differently named subdirectory, but nothing deletes them:
// prune and scanSize walk only the current subdirectory, so they stay
// on disk until the cache directory (.migcache by default) is removed
// by hand. Epoch 6: TrialResult lost DestUsage, and deleting the
// held-trial variant renumbered the resilience and shard variants in
// entry file names. Epoch 7: entry bodies moved from gob to entryCodec.
// Still epoch 7: deleting the shard-stress and usage variants
// renumbered the fault-cost variant, but it also dropped
// ShardStressResult and vm.Usage from the shape digest, so the
// renumbered names live in a new subdirectory.
const memoEpoch = 7

// memoMagic heads every cache entry so a torn or foreign file is
// rejected before any decoding happens.
var memoMagic = [8]byte{'M', 'I', 'G', 'M', 'E', 'M', 'O', '1'}

// DefaultCacheDir is where the persistent memo cache lives when no
// directory is given.
const DefaultCacheDir = ".migcache"

// DefaultCacheBytes is the default size cap for the persistent memo
// cache. When the cache grows past it, the oldest entries (by file
// modification time) are pruned until the cache is back under 3/4 of
// the cap.
const DefaultCacheBytes = 256 << 20

// DiskStats counts disk-cache traffic for one process.
type DiskStats struct {
	Hits    uint64 // entries served from disk
	Misses  uint64 // lookups that fell through to simulation
	Writes  uint64 // entries persisted
	Rejects uint64 // corrupt/truncated/unreadable entries discarded
}

// DiskCache is the persistent second level of the engine's memo cache:
// a directory of checksummed, entryCodec-encoded results of every
// memoized engine method (grid and resilience trials and the fault
// costs) keyed by the same (config fingerprint, variant, coordinates)
// tuple as the in-memory map, namespaced by schema epoch, Go version
// and the shape of the result types. Entries are written atomically
// (tmp + rename) and verified on load; anything torn, truncated, or
// stale is discarded and silently recomputed. All methods are safe for
// concurrent use by the engine's worker pool.
type DiskCache struct {
	dir      string // entry directory: dir/cacheSubdir(shape)
	maxBytes int64

	size    atomic.Int64 // approximate bytes of entries in dir
	pruneMu sync.Mutex   // serializes prune scans

	hits, misses, writes, rejects atomic.Uint64
}

// cacheSubdir names the namespace entries live in: the schema epoch,
// the Go version and the digest of the cached types' shapes. Results
// are only portable across processes running the same schema,
// toolchain and result types: the fingerprint's %#v rendering is
// stable for a fixed Go version, so the version joins the name, and
// the entry codec is positional, so an entry decodes right only as the
// type layout that wrote it, which the shape digest pins.
func cacheSubdir(shape uint64) string {
	v := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		}
		return '-'
	}, runtime.Version())
	return fmt.Sprintf("e%d-%s-%016x", memoEpoch, v, shape)
}

// OpenDiskCache opens (creating if needed) a persistent memo cache
// under dir. An empty dir selects DefaultCacheDir; maxBytes <= 0
// selects DefaultCacheBytes.
func OpenDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	_, shape := entryCodecs()
	d := &DiskCache{dir: filepath.Join(dir, cacheSubdir(shape)), maxBytes: maxBytes}
	if err := os.MkdirAll(d.dir, 0o777); err != nil {
		return nil, fmt.Errorf("memo cache: %w", err)
	}
	d.size.Store(d.scanSize())
	return d, nil
}

// Dir reports the directory entries are stored in (including the
// epoch, version and shape namespace).
func (d *DiskCache) Dir() string { return d.dir }

// Stats reports the cache traffic counters.
func (d *DiskCache) Stats() DiskStats {
	return DiskStats{
		Hits:    d.hits.Load(),
		Misses:  d.misses.Load(),
		Writes:  d.writes.Load(),
		Rejects: d.rejects.Load(),
	}
}

// filename renders the variant and coordinates of one entry. The
// config fingerprint already folds in the machine/link/tuning models,
// the base seed, and (for resilience entries) the trial options.
func (k cacheKey) filename() string {
	return fmt.Sprintf("%016x-%d-%d-%d-%d.memo", k.fp, k.variant, int(k.Kind), int(k.Strategy), k.Prefetch)
}

// checksum is FNV-64a over the encoded body; it guards against torn
// writes and bit rot, not adversaries.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// diskLoad fetches and verifies one entry from d, which may be nil (no
// disk level). Any failure — absent, torn, truncated, bit-flipped,
// undecodable — reports a miss; corrupt files are additionally removed
// so they are rebuilt by the write-behind. The key's variant is in the
// filename, so an entry of another result type is reachable only
// through a hand-damaged file.
func diskLoad[T any](d *DiskCache, key cacheKey) (*T, bool) {
	if d == nil {
		return nil, false
	}
	path := filepath.Join(d.dir, key.filename())
	raw, err := os.ReadFile(path)
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	v, ok := decodeEntry[T](raw)
	if !ok {
		d.rejects.Add(1)
		d.misses.Add(1)
		os.Remove(path)
		return nil, false
	}
	d.hits.Add(1)
	return v, true
}

// frameEntry wraps an encoded body in the entry framing decodeEntry
// checks: magic, body length, body checksum.
func frameEntry(body []byte) []byte {
	buf := make([]byte, 0, 24+len(body))
	buf = append(buf, memoMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint64(buf, checksum(body))
	return append(buf, body...)
}

// decodeEntry validates the framing (magic, length, checksum) and
// decodes the body as a T.
func decodeEntry[T any](raw []byte) (*T, bool) {
	const hdr = 8 + 8 + 8 // magic + body length + checksum
	if len(raw) < hdr || !bytes.Equal(raw[:8], memoMagic[:]) {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	sum := binary.LittleEndian.Uint64(raw[16:24])
	body := raw[hdr:]
	if uint64(len(body)) != n || checksum(body) != sum {
		return nil, false
	}
	var v T
	if !codecOf(reflect.TypeFor[T]()).decode(body, reflect.ValueOf(&v).Elem()) {
		return nil, false
	}
	return &v, true
}

// encodeEntry encodes the result *v as an entry body.
func encodeEntry(v any) []byte {
	rv := reflect.ValueOf(v).Elem()
	return codecOf(rv.Type()).enc(nil, rv)
}

// store persists one entry atomically: encode, write to a temp file in
// the same directory, fsync-free rename into place. Failures are
// swallowed — the cache is an accelerator, never a correctness
// dependency — and a size cap overrun triggers a prune. v is the result
// pointer itself; its encoding is the entry body.
func (d *DiskCache) store(key cacheKey, v any) {
	buf := frameEntry(encodeEntry(v))

	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, filepath.Join(d.dir, key.filename())); err != nil {
		os.Remove(name)
		return
	}
	d.writes.Add(1)
	if d.size.Add(int64(len(buf))) > d.maxBytes {
		d.prune()
	}
}

// scanSize sums the on-disk entry sizes (leftover temp files included,
// they are prune fodder too).
func (d *DiskCache) scanSize() int64 {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// prune deletes the oldest entries (by modification time) until the
// cache is under 3/4 of the size cap, so steady growth does not prune
// on every store.
func (d *DiskCache) prune() {
	d.pruneMu.Lock()
	defer d.pruneMu.Unlock()
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type fileAge struct {
		name  string
		size  int64
		mtime int64
	}
	files := make([]fileAge, 0, len(ents))
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		files = append(files, fileAge{ent.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	d.size.Store(total)
	target := d.maxBytes * 3 / 4
	if total <= target {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	for _, f := range files {
		if total <= target {
			break
		}
		if os.Remove(filepath.Join(d.dir, f.name)) == nil {
			total -= f.size
			d.size.Add(-f.size)
		}
	}
}

// entryCodec is the positional binary encoding of one type, compiled
// by reflection: the exported fields of a struct in declaration order,
// integers as varints (signed ones zig-zagged), a bool or a pointer's
// presence as one byte 0 or 1 (a present pointer's value follows), and
// a string or slice as a uvarint length and then its bytes or
// elements. Nothing in an entry names a field or a type, so an entry
// decodes right only as the layout that wrote it; cacheSubdir's shape
// digest keeps entries of any other layout out of reach.
type entryCodec struct {
	enc func(b []byte, v reflect.Value) []byte
	dec func(r *entryReader, v reflect.Value)
	// min is the fewest bytes a value takes, so a decoded slice length
	// is checked against the bytes left before the slice is made.
	min int
}

// entryCodecs compiles, once per process, the codec of each result
// type a DiskCache entry holds (one per memo variant) and the digest
// of their shapes.
var entryCodecs = sync.OnceValues(func() (map[reflect.Type]*entryCodec, uint64) {
	return compileCodecs(reflect.TypeFor[TrialResult](), reflect.TypeFor[ResilienceOutcome](), reflect.TypeFor[FaultCosts]())
})

// compileCodecs compiles each type's codec and returns them with the
// FNV-64a digest of the types' shapes: field names, types and nesting,
// everything the encoding depends on.
func compileCodecs(types ...reflect.Type) (map[reflect.Type]*entryCodec, uint64) {
	var shape strings.Builder
	codecs := make(map[reflect.Type]*entryCodec, len(types))
	for _, t := range types {
		codecs[t] = compileCodec(t, &shape)
		shape.WriteString("\n")
	}
	h := fnv.New64a()
	h.Write([]byte(shape.String()))
	return codecs, h.Sum64()
}

// codecOf returns the codec of a cached result type.
func codecOf(t reflect.Type) *entryCodec {
	codecs, _ := entryCodecs()
	c := codecs[t]
	if c == nil {
		panic(fmt.Sprintf("memo cache: %v is not a cached result type", t))
	}
	return c
}

// compileCodec builds t's codec and writes t's shape to shape. It
// panics on a kind the encoding has no form for (a float, a map, an
// interface, ...): only a new field of a cached result type can bring
// one, and then the first cache use fails. A type that contains itself
// has no codec either.
func compileCodec(t reflect.Type, shape *strings.Builder) *entryCodec {
	switch t.Kind() {
	case reflect.Struct:
		var idx []int
		var fields []*entryCodec
		n := 0
		shape.WriteString("{")
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			shape.WriteString(f.Name + " ")
			c := compileCodec(f.Type, shape)
			shape.WriteString("; ")
			idx = append(idx, i)
			fields = append(fields, c)
			n += c.min
		}
		shape.WriteString("}")
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte {
				for j, c := range fields {
					b = c.enc(b, v.Field(idx[j]))
				}
				return b
			},
			dec: func(r *entryReader, v reflect.Value) {
				for j, c := range fields {
					c.dec(r, v.Field(idx[j]))
				}
			},
			min: n,
		}
	case reflect.Pointer:
		shape.WriteString("*")
		elem := compileCodec(t.Elem(), shape)
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte {
				if v.IsNil() {
					return append(b, 0)
				}
				return elem.enc(append(b, 1), v.Elem())
			},
			dec: func(r *entryReader, v reflect.Value) {
				if r.flag() {
					p := reflect.New(t.Elem())
					elem.dec(r, p.Elem())
					v.Set(p)
				}
			},
			min: 1,
		}
	case reflect.Slice:
		shape.WriteString("[]")
		elem := compileCodec(t.Elem(), shape)
		size := max(elem.min, 1)
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte {
				b = binary.AppendUvarint(b, uint64(v.Len()))
				for i := 0; i < v.Len(); i++ {
					b = elem.enc(b, v.Index(i))
				}
				return b
			},
			dec: func(r *entryReader, v reflect.Value) {
				n := r.count(size)
				if n == 0 {
					return
				}
				s := reflect.MakeSlice(t, n, n)
				for i := 0; i < n; i++ {
					elem.dec(r, s.Index(i))
				}
				v.Set(s)
			},
			min: 1,
		}
	}
	// A scalar's shape is its type and kind: "time.Duration=int64".
	shape.WriteString(t.String() + "=" + t.Kind().String())
	switch t.Kind() {
	case reflect.Bool:
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte {
				if v.Bool() {
					return append(b, 1)
				}
				return append(b, 0)
			},
			dec: func(r *entryReader, v reflect.Value) { v.SetBool(r.flag()) },
			min: 1,
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) },
			dec: func(r *entryReader, v reflect.Value) {
				x := r.varint()
				if v.OverflowInt(x) {
					panic(badEntry{})
				}
				v.SetInt(x)
			},
			min: 1,
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) },
			dec: func(r *entryReader, v reflect.Value) {
				x := r.uvarint()
				if v.OverflowUint(x) {
					panic(badEntry{})
				}
				v.SetUint(x)
			},
			min: 1,
		}
	case reflect.String:
		return &entryCodec{
			enc: func(b []byte, v reflect.Value) []byte {
				b = binary.AppendUvarint(b, uint64(v.Len()))
				return append(b, v.String()...)
			},
			dec: func(r *entryReader, v reflect.Value) {
				n := r.count(1)
				v.SetString(string(r.b[:n]))
				r.b = r.b[n:]
			},
			min: 1,
		}
	}
	panic(fmt.Sprintf("memo cache: no entry encoding for %v", t))
}

// decode fills v, a settable zero value of the codec's type, from
// body. It reports false, leaving v partly filled, when body is not
// exactly one well-formed value.
func (c *entryCodec) decode(body []byte, v reflect.Value) (ok bool) {
	defer func() {
		switch rec := recover().(type) {
		case nil:
		case badEntry:
			ok = false
		default:
			panic(rec)
		}
	}()
	r := entryReader{body}
	c.dec(&r, v)
	return len(r.b) == 0
}

// entryReader reads an entry body front to back. A read past the end
// or a malformed value panics with badEntry, which decode turns into a
// miss.
type entryReader struct{ b []byte }

type badEntry struct{}

func (r *entryReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		panic(badEntry{})
	}
	r.b = r.b[n:]
	return x
}

func (r *entryReader) varint() int64 {
	x, n := binary.Varint(r.b)
	if n <= 0 {
		panic(badEntry{})
	}
	r.b = r.b[n:]
	return x
}

// flag reads a bool or a pointer's presence byte: 0 or 1.
func (r *entryReader) flag() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		panic(badEntry{})
	}
	f := r.b[0] == 1
	r.b = r.b[1:]
	return f
}

// count reads a length and checks it against the bytes left, at least
// size bytes an item, as wire.Decoder.Count does, so nothing is sized
// from a length the body could not fill.
func (r *entryReader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/size) {
		panic(badEntry{})
	}
	return int(n)
}
