// Package vmbench holds the VM-layer microbenchmark bodies shared by
// `go test -bench` (bench_test.go here) and the benchmark of record's
// layer probes (bench/probes.go), which run them through
// testing.Benchmark. Keeping one copy of each body guarantees that the
// smoke gate and the probes measure the same code path.
package vmbench

import (
	"testing"

	"accentmig/internal/vm"
)

// ResidentTouch measures the steady-state cost of one memory reference
// that hits a resident page: address resolution through the region
// tree, the page-table lookup, and the LRU touch. This is the path the
// simulated CPU takes for every instruction-stream reference, so it
// dominates dense-touch workload cells. Must be zero-alloc.
func ResidentTouch(b *testing.B) {
	const pages = 64
	pool := vm.NewFramePool(vm.DefaultPageSize)
	as := vm.MustNewAddressSpace(vm.Config{Pool: pool})
	reg, err := as.Validate(0, pages*vm.DefaultPageSize, "data")
	if err != nil {
		b.Fatal(err)
	}
	phys := vm.NewPhysMem(pages + 16)
	for i := uint64(0); i < pages; i++ {
		pg := reg.Seg.Materialize(i, []byte{byte(i)})
		pg.State.Resident = true
		phys.Insert(reg.Seg, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := vm.Addr(i%pages) * vm.DefaultPageSize
		pl, ok := as.Resolve(addr)
		if !ok {
			b.Fatal("resolve failed")
		}
		pg := pl.Seg.Page(pl.PageIdx)
		if pg == nil || !pg.State.Resident {
			b.Fatal("page not resident")
		}
		phys.Touch(pl.Seg, pl.PageIdx)
	}
}

// BuildAMapSparse measures AMap reconstruction over a sparse 4 GB
// address space: 64 regions scattered across the full Accent space,
// each with a fragmented residency pattern, rebuilt into coalesced
// runs by one ordered page-table sweep. Steady-state rebuilds reuse
// the entries buffer and must be zero-alloc.
func BuildAMapSparse(b *testing.B) {
	pool := vm.NewFramePool(vm.DefaultPageSize)
	as := vm.MustNewAddressSpace(vm.Config{Pool: pool})
	const regions = 64
	const regionPages = 128
	stride := vm.Addr(vm.MaxSpace / regions)
	for r := 0; r < regions; r++ {
		reg, err := as.Validate(vm.Addr(r)*stride, regionPages*vm.DefaultPageSize, "sparse")
		if err != nil {
			b.Fatal(err)
		}
		// Fragment: pages present in bursts of 5 with 3-page holes, so
		// the sweep has real run boundaries to find.
		for i := uint64(0); i < regionPages; i++ {
			if i%8 < 5 {
				reg.Seg.Materialize(i, []byte{byte(i)})
			}
		}
	}
	m := vm.BuildAMap(as)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rebuild(as)
	}
	b.StopTimer()
	if len(m.Entries) == 0 {
		b.Fatal("empty AMap")
	}
}

// COWBreak measures the copy on first write: BreakCOW of a borrowed
// page, which copies the lender's image into a private frame from the
// pool. This is the copy a process pays the first time it writes a page
// of its installed template. Pages are borrowed one page-table chunk at
// a time and released together, so the pool recycles their frames. One
// page stays resident, as a running process's pages are, so a release
// keeps the table's slots. Must be zero-alloc.
func COWBreak(b *testing.B) {
	const pages = 256 // one page-table chunk
	pool := vm.NewFramePool(vm.DefaultPageSize)
	seg := vm.NewSegment("cow", pages*vm.DefaultPageSize, vm.DefaultPageSize)
	seg.SetPool(pool)
	image := make([]byte, vm.DefaultPageSize)
	for i := range image {
		image[i] = byte(i*31 + 7)
	}
	phys := vm.NewPhysMem(1)
	// Warm one chunk so the pool and the table hold every frame and
	// slot the loop reuses.
	for i := uint64(0); i < pages; i++ {
		seg.Borrow(i, image)
		seg.BreakCOW(i)
	}
	phys.Insert(seg, 0)
	seg.ReleaseFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(i % pages)
		seg.Borrow(idx, image)
		seg.BreakCOW(idx)
		if idx == pages-1 {
			seg.ReleaseFrames()
		}
	}
	b.StopTimer()
	if got, want := pool.Stats().Gets, uint64(pages+b.N); got != want {
		b.Fatalf("%d pool frames drawn, want %d: one per break", got, want)
	}
}

// PageHash measures naming one page for the content-addressed store:
// a single FNV-1a pass over a full 512-byte image. This is the
// per-page cost of building a migration manifest and of every
// verify-on-lookup re-hash, so it bounds how cheaply elision can ever
// break even. Must be zero-alloc.
func PageHash(b *testing.B) {
	page := make([]byte, vm.DefaultPageSize)
	for i := range page {
		page[i] = byte(i*31 + 7)
	}
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, zero := vm.HashPage(page, vm.DefaultPageSize)
		if zero {
			b.Fatal("patterned page hashed as zero")
		}
		sink += h
	}
	b.StopTimer()
	if sink == 0 {
		b.Log("hash sink zero") // keep the loop body live
	}
}

// HashRun measures naming a 64-page run through the four-abreast
// kernel: the sweep that hashes an outgoing attachment's pages once per
// migration and names every present page of an image digest. It
// reports ns/page beside ns/op, to read against PageHash. Must be
// zero-alloc.
func HashRun(b *testing.B) {
	const pages = 64
	data := make([]byte, pages*vm.DefaultPageSize)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	r := vm.PageRun{Count: pages, Data: data}
	dst := make([]uint64, 0, pages)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = vm.HashRun(dst[:0], r, vm.DefaultPageSize)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	if len(dst) != pages || dst[0] == vm.ZeroHash {
		b.Fatalf("named %d pages, first %#x", len(dst), dst[0])
	}
}

// ContentIndexHit measures a verified index lookup: the map probe plus
// the guard re-hash of the remembered frame. This is the destination's
// per-page cost of classifying a manifest against content it already
// holds. Must be zero-alloc.
func ContentIndexHit(b *testing.B) {
	const pages = 256
	ix := vm.NewContentIndex(vm.DefaultPageSize)
	hashes := make([]uint64, pages)
	for p := 0; p < pages; p++ {
		data := make([]byte, vm.DefaultPageSize)
		for i := range data {
			data[i] = byte(p*31 + i*7 + 1)
		}
		h, _ := vm.HashPage(data, vm.DefaultPageSize)
		ix.Put(h, data)
		hashes[p] = h
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Lookup(hashes[i%pages]); !ok {
			b.Fatal("warm lookup missed")
		}
	}
}

// ContentIndexMiss measures an absent-hash probe: the map miss every
// never-seen page pays during classification. Must be zero-alloc.
func ContentIndexMiss(b *testing.B) {
	ix := vm.NewContentIndex(vm.DefaultPageSize)
	data := make([]byte, vm.DefaultPageSize)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	h, _ := vm.HashPage(data, vm.DefaultPageSize)
	ix.Put(h, data)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Lookup(h ^ uint64(i) | 2); ok {
			b.Fatal("absent hash hit")
		}
	}
}
