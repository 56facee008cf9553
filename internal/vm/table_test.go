package vm

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTableMatchesReferenceModel drives the two-level page table with a
// randomized materialize/clear sequence and checks every query against
// a plain map reference. The table replaced map[uint64]*Page on the
// data plane, so any divergence here is exactly the kind of bug that
// would silently change experiment output. Every ensure and get of an
// index must also return the same *Page, across clear and re-ensure:
// PhysMem's LRU link lives in the page.
func TestTableMatchesReferenceModel(t *testing.T) {
	const nPages = 5 * tableChunkPages // spans several chunks
	rng := rand.New(rand.NewSource(42))
	var tbl pageTable
	ref := map[uint64]bool{}
	ptrs := map[uint64]*Page{}
	samePage := func(step int, op string, idx uint64, p *Page) {
		t.Helper()
		if first, ok := ptrs[idx]; ok && first != p {
			t.Fatalf("step %d: %s(%d) = %p, first handed out %p", step, op, idx, p, first)
		}
		ptrs[idx] = p
	}

	for step := 0; step < 4000; step++ {
		idx := uint64(rng.Intn(nPages))
		switch rng.Intn(3) {
		case 0:
			p := tbl.clear(idx)
			if (p != nil) != ref[idx] {
				t.Fatalf("step %d: clear(%d) = %v, ref=%v", step, idx, p, ref[idx])
			}
			if p != nil {
				samePage(step, "clear", idx, p)
			}
			delete(ref, idx)
		default:
			p, present := tbl.ensure(idx)
			if present != ref[idx] {
				t.Fatalf("step %d: ensure(%d) present=%v, ref=%v", step, idx, present, ref[idx])
			}
			samePage(step, "ensure", idx, p)
			if present && p.Index != idx {
				t.Fatalf("step %d: ensure(%d) returned the page of index %d", step, idx, p.Index)
			}
			p.Index = idx
			ref[idx] = true
		}
		if q := uint64(rng.Intn(nPages)); ref[q] {
			samePage(step, "get", q, tbl.get(q))
		}
	}

	if tbl.count != len(ref) {
		t.Fatalf("count = %d, ref has %d", tbl.count, len(ref))
	}
	for idx := uint64(0); idx < nPages; idx++ {
		p := tbl.get(idx)
		if got := p != nil; got != ref[idx] {
			t.Fatalf("get(%d) = %v, ref = %v", idx, got, ref[idx])
		}
		if p != nil {
			samePage(-1, "get", idx, p)
		}
	}

	// Run iteration must visit exactly the reference set, in order, with
	// maximal contiguous runs.
	var sorted []uint64
	for idx := range ref {
		sorted = append(sorted, idx)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var visited []uint64
	cursor := uint64(0)
	for {
		start, end, ok := tbl.nextRun(cursor, nPages-1)
		if !ok {
			break
		}
		if start > 0 && tbl.get(start-1) != nil && start > cursor {
			t.Fatalf("run [%d,%d) is not maximal on the left", start, end)
		}
		if end <= nPages-1 && tbl.get(end) != nil {
			t.Fatalf("run [%d,%d) is not maximal on the right", start, end)
		}
		for i := start; i < end; i++ {
			visited = append(visited, i)
		}
		cursor = end
		if cursor > nPages-1 {
			break
		}
	}
	if len(visited) != len(sorted) {
		t.Fatalf("run sweep visited %d pages, want %d", len(visited), len(sorted))
	}
	for i := range sorted {
		if visited[i] != sorted[i] {
			t.Fatalf("sweep order diverges at %d: %d != %d", i, visited[i], sorted[i])
		}
	}

	// countRange on random windows must agree with the reference.
	for trial := 0; trial < 200; trial++ {
		a, b := uint64(rng.Intn(nPages)), uint64(rng.Intn(nPages))
		if a > b {
			a, b = b, a
		}
		want := 0
		for idx := a; idx <= b; idx++ {
			if ref[idx] {
				want++
			}
		}
		if got := tbl.countRange(a, b); got != want {
			t.Fatalf("countRange(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

// TestTableChunkBoundaryRuns pins run discovery across chunk and word
// boundaries, the places a bitmap scan is easiest to get wrong.
func TestTableChunkBoundaryRuns(t *testing.T) {
	const nPages = 3 * tableChunkPages
	var tbl pageTable
	// One run straddling the first chunk boundary, one straddling a
	// 64-bit word boundary, one singleton at the very end.
	spans := [][2]uint64{
		{tableChunkPages - 3, tableChunkPages + 2},
		{tableChunkPages + 60, tableChunkPages + 70},
		{nPages - 1, nPages - 1},
	}
	for _, sp := range spans {
		for i := sp[0]; i <= sp[1]; i++ {
			p, _ := tbl.ensure(i)
			p.Index = i
		}
	}
	var got [][2]uint64
	cursor := uint64(0)
	for {
		start, end, ok := tbl.nextRun(cursor, nPages-1)
		if !ok {
			break
		}
		got = append(got, [2]uint64{start, end - 1})
		cursor = end
	}
	if len(got) != len(spans) {
		t.Fatalf("found %d runs %v, want %d", len(got), got, len(spans))
	}
	for i, sp := range spans {
		if got[i] != sp {
			t.Errorf("run %d = %v, want %v", i, got[i], sp)
		}
	}
}

// TestPoolRecycledFrameNeverLeaksStaleBytes: a frame that held one
// page's data gets recycled into another segment; the short new
// contents must be zero-padded, never exposing the previous tenant.
func TestPoolRecycledFrameNeverLeaksStaleBytes(t *testing.T) {
	pool := NewFramePool(DefaultPageSize)
	a := NewSegment("a", DefaultPageSize, DefaultPageSize)
	a.SetPool(pool)
	dirty := make([]byte, DefaultPageSize)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	a.Materialize(0, dirty)
	a.ReleaseFrames() // frame returns to the pool full of 0xAA

	b := NewSegment("b", DefaultPageSize, DefaultPageSize)
	b.SetPool(pool)
	pg := b.Materialize(0, []byte("short"))
	if string(pg.Data[:5]) != "short" {
		t.Fatalf("data = %q", pg.Data[:5])
	}
	for i := 5; i < len(pg.Data); i++ {
		if pg.Data[i] != 0 {
			t.Fatalf("stale byte %#x leaked at offset %d of a recycled frame", pg.Data[i], i)
		}
	}
	if pool.Stats().Puts == 0 || pool.Stats().Gets < 2 {
		t.Errorf("pool traffic not recorded: %+v", pool.Stats())
	}
}

// TestPoolArenaFramesAreIsolated: appending through one pool frame must
// never grow into its neighbor in the same arena.
func TestPoolArenaFramesAreIsolated(t *testing.T) {
	pool := NewFramePool(DefaultPageSize)
	f1 := pool.Get()
	f2 := pool.Get()
	if cap(f1) != DefaultPageSize || cap(f2) != DefaultPageSize {
		t.Fatalf("frame caps = %d, %d; want %d", cap(f1), cap(f2), DefaultPageSize)
	}
	grown := append(f1, 0xFF)
	if &grown[0] == &f1[0] {
		t.Error("append extended a capped arena frame in place")
	}
	_ = f2
}

// TestReleaseFramesLeavesSharedData: COW sharers must survive their
// sibling segment's frame release.
func TestReleaseFramesLeavesSharedData(t *testing.T) {
	pool := NewFramePool(DefaultPageSize)
	src := NewSegment("src", DefaultPageSize, DefaultPageSize)
	src.SetPool(pool)
	spg := src.Materialize(0, []byte("shared bytes"))
	dst := NewSegment("dst", DefaultPageSize, DefaultPageSize)
	dst.SetPool(pool)
	dst.AdoptShared(0, spg)

	before := pool.FreeFrames()
	src.ReleaseFrames()
	got := dst.Read(0, 0, 12)
	if string(got) != "shared bytes" {
		t.Fatalf("sharer lost its data after sibling release: %q", got)
	}
	if free := pool.FreeFrames(); free != before {
		t.Errorf("shared frame was recycled: free count %d -> %d", before, free)
	}
}
