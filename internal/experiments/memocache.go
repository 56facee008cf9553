package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// memoEpoch is the on-disk schema version of a cached trial. Bump it
// whenever the entry body (the gob encoding of the result value itself:
// TrialResult, ResilienceOutcome, ShardStressResult and everything they
// embed), the variant numbering in the file name, or the simulation's
// observable semantics change in a way the config fingerprint cannot
// see — a changed calibration constant (DESIGN.md §3 tables them;
// netmsg's fragCPU or vm.HashPerPageCPU, say) is one, since constants
// are not config fields; old entries become unreachable (they live in a
// differently named subdirectory) and are eventually pruned. Epoch 6:
// TrialResult lost DestUsage, and deleting the held-trial variant
// renumbered the resilience and shard variants in entry file names.
const memoEpoch = 6

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
// a directory of checksummed, gob-encoded trial results keyed by the
// same (config fingerprint, trial coordinates) tuple as the in-memory
// map, namespaced by schema epoch and Go version. Entries are written
// atomically (tmp + rename) and verified on load; anything torn,
// truncated, or stale is discarded and silently recomputed. All methods
// are safe for concurrent use by the engine's worker pool.
type DiskCache struct {
	dir      string // epoch+version-scoped entry directory
	maxBytes int64

	size    atomic.Int64 // approximate bytes of entries in dir
	pruneMu sync.Mutex   // serializes prune scans

	hits, misses, writes, rejects atomic.Uint64
}

// cacheSubdir names the epoch+Go-version namespace. Results are only
// portable across processes running the same schema and toolchain: the
// fingerprint's %#v rendering and gob's float/struct encodings are
// stable for a fixed Go version, so the version joins the key.
func cacheSubdir() string {
	v := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		}
		return '-'
	}, runtime.Version())
	return fmt.Sprintf("e%d-%s", memoEpoch, v)
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
	d := &DiskCache{dir: filepath.Join(dir, cacheSubdir()), maxBytes: maxBytes}
	if err := os.MkdirAll(d.dir, 0o777); err != nil {
		return nil, fmt.Errorf("memo cache: %w", err)
	}
	d.size.Store(d.scanSize())
	return d, nil
}

// Dir reports the directory entries are stored in (including the
// epoch+version namespace).
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

// filename renders the trial coordinates of one entry. The config
// fingerprint already folds in the machine/link/tuning models, the base
// seed, and (for resilience entries) the trial options.
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

// decodeEntry validates the framing (magic, length, checksum) and gob-
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
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		return nil, false
	}
	return &v, true
}

// store persists one entry atomically: encode, write to a temp file in
// the same directory, fsync-free rename into place. Failures are
// swallowed — the cache is an accelerator, never a correctness
// dependency — and a size cap overrun triggers a prune. v is the result
// pointer itself; its gob encoding is the entry body.
func (d *DiskCache) store(key cacheKey, v any) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return
	}
	buf := frameEntry(body.Bytes())

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
