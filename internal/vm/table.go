package vm

import "math/bits"

// The page table is the data-plane replacement for the old
// map[uint64]*Page: a two-level sparse structure whose leaves are
// pointer-free chunks of slot numbers plus an occupancy bitmap. It buys
// three things the map could not give at once:
//
//   - O(1) lookup with no hashing and no per-page *Page allocation
//     (pages live by value in a per-segment slab);
//   - in-order iteration for free, so BuildAMap emits coalesced runs in
//     a single ordered sweep with no key extraction and no sort;
//   - run discovery by bitmap scan, so contiguous materialized runs can
//     be batched into single multi-page transfer operations.
//
// Chunks cover tableChunkPages page slots each. The top level is a
// dense slice indexed by chunk number, grown on demand to the highest
// chunk ever materialized: a fully validated 4 GB Lisp space whose
// pages sit in its low 30 MB carries about 235 chunk pointers, not
// 32 Ki, and every sweep stops at the last of them.
//
// A chunk holds no Page: each of its slots names a page in the slab, a
// list of fixed-size Page blocks filled in materialization order and
// never moved. A sparse segment therefore pays about 1 KB per chunk it
// touches (which the collector never scans) plus one Page per page it
// holds. A page keeps its slab slot for the life of the table, across
// clear and a later ensure, so every *Page handed out for an index is
// the same pointer.
// A lookup is a few shifts and masks and four indexing operations.

const (
	tableChunkShift = 8
	// tableChunkPages is the page span of one leaf chunk (256 pages =
	// 128 KB of address space at the Accent page size).
	tableChunkPages = 1 << tableChunkShift
	tableChunkMask  = tableChunkPages - 1
	tableWords      = tableChunkPages / 64

	slabBlockShift = 6
	// slabBlockPages is the Page count of one slab block (3.5 KB).
	slabBlockPages = 1 << slabBlockShift
	slabBlockMask  = slabBlockPages - 1
)

// pageChunk is one leaf: the slab slot of every page index in its
// window that was ever materialized, and the occupancy bitmap that says
// which of them hold a materialized page now. It holds no pointer.
type pageChunk struct {
	slots [tableChunkPages]int32 // 1 + slab slot; 0: no slot yet
	bits  [tableWords]uint64
	live  int
}

// pageTable is the two-level sparse page table of one segment.
type pageTable struct {
	chunks []*pageChunk // indexed by pageIdx >> tableChunkShift; nil = empty
	slab   []*[slabBlockPages]Page
	slots  int32 // slab pages handed out
	count  int   // materialized pages across all chunks
}

// page returns the slab page a chunk slot names (1-based).
func (t *pageTable) page(s int32) *Page {
	s--
	return &t.slab[s>>slabBlockShift][s&slabBlockMask]
}

// get returns the materialized page at idx, or nil. idx must be within
// the segment (the caller bounds-checks against Segment.Pages).
func (t *pageTable) get(idx uint64) *Page {
	ci := idx >> tableChunkShift
	if ci >= uint64(len(t.chunks)) {
		return nil
	}
	c := t.chunks[ci]
	if c == nil {
		return nil
	}
	slot := idx & tableChunkMask
	if c.bits[slot>>6]&(1<<(slot&63)) == 0 {
		return nil
	}
	return t.page(c.slots[slot])
}

// lookup returns the slab page idx was ever given, materialized or not
// (nil if none), and whether it is materialized now. PhysMem reaches a
// page's LRU link through it, since a link outlives a clear.
func (t *pageTable) lookup(idx uint64) (*Page, bool) {
	ci := idx >> tableChunkShift
	if ci >= uint64(len(t.chunks)) {
		return nil, false
	}
	c := t.chunks[ci]
	if c == nil {
		return nil, false
	}
	slot := idx & tableChunkMask
	s := c.slots[slot]
	if s == 0 {
		return nil, false
	}
	return t.page(s), c.bits[slot>>6]&(1<<(slot&63)) != 0
}

// ensure returns the page slot for idx, creating its chunk (and growing
// the top level to reach it) and its slab page if needed, and reports
// whether the slot already held a materialized page.
func (t *pageTable) ensure(idx uint64) (*Page, bool) {
	ci := idx >> tableChunkShift
	if ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([]*pageChunk, ci+1-uint64(len(t.chunks)))...)
	}
	c := t.chunks[ci]
	if c == nil {
		c = &pageChunk{}
		t.chunks[ci] = c
	}
	slot := idx & tableChunkMask
	s := c.slots[slot]
	if s == 0 {
		if t.slots&slabBlockMask == 0 {
			t.slab = append(t.slab, new([slabBlockPages]Page))
		}
		t.slots++
		s = t.slots
		c.slots[slot] = s
	}
	word, bit := slot>>6, uint64(1)<<(slot&63)
	present := c.bits[word]&bit != 0
	if !present {
		c.bits[word] |= bit
		c.live++
		t.count++
	}
	return t.page(s), present
}

// clear removes the page at idx from the table, returning its slot (for
// frame recycling) or nil if it was not materialized. The slot stays
// assigned to idx.
func (t *pageTable) clear(idx uint64) *Page {
	p, present := t.lookup(idx)
	if !present {
		return nil
	}
	c := t.chunks[idx>>tableChunkShift]
	slot := idx & tableChunkMask
	c.bits[slot>>6] &^= 1 << (slot & 63)
	c.live--
	t.count--
	return p
}

// reset empties the table. If no page links to a PhysMem frame, the
// whole table is dropped. Otherwise every slot is kept and every slab
// page is zeroed except its link, so a frame that outlives its page is
// found again if the index is materialized anew, as a frame keyed by
// (segment, index) would be.
func (t *pageTable) reset() {
	if !t.linked() {
		*t = pageTable{}
		return
	}
	for _, b := range t.slab {
		for i := range b {
			b[i] = Page{frame: b[i].frame}
		}
	}
	for _, c := range t.chunks {
		if c != nil {
			c.bits = [tableWords]uint64{}
			c.live = 0
		}
	}
	t.count = 0
}

// linked reports whether any slab page links to a PhysMem frame.
func (t *pageTable) linked() bool {
	for _, b := range t.slab {
		for i := range b {
			if b[i].frame != 0 {
				return true
			}
		}
	}
	return false
}

// nextPresent finds the first materialized page index >= from, or
// (0, false) when none exists at or below last.
func (t *pageTable) nextPresent(from, last uint64) (uint64, bool) {
	if t.count == 0 {
		return 0, false
	}
	ci := from >> tableChunkShift
	slot := from & tableChunkMask
	for ; ci < uint64(len(t.chunks)); ci++ {
		c := t.chunks[ci]
		if c == nil || c.live == 0 {
			slot = 0
			if ci<<tableChunkShift > last {
				return 0, false
			}
			continue
		}
		word := slot >> 6
		// Mask off bits below the starting slot in the first word.
		w := c.bits[word] &^ ((1 << (slot & 63)) - 1)
		for {
			if w != 0 {
				idx := ci<<tableChunkShift | word<<6 | uint64(bits.TrailingZeros64(w))
				if idx > last {
					return 0, false
				}
				return idx, true
			}
			word++
			if word == tableWords {
				break
			}
			w = c.bits[word]
		}
		slot = 0
		if (ci+1)<<tableChunkShift > last {
			return 0, false
		}
	}
	return 0, false
}

// runEnd extends a run of consecutive materialized pages starting at
// start (which must be present) and returns the exclusive end index,
// clipped to last+1.
func (t *pageTable) runEnd(start, last uint64) uint64 {
	idx := start
	for {
		ci := idx >> tableChunkShift
		if ci >= uint64(len(t.chunks)) {
			return idx
		}
		c := t.chunks[ci]
		if c == nil {
			return idx
		}
		slot := idx & tableChunkMask
		word := slot >> 6
		// Invert: a zero bit ends the run. Mask off bits below slot.
		w := ^c.bits[word] &^ ((1 << (slot & 63)) - 1)
		for {
			if w != 0 {
				end := ci<<tableChunkShift | word<<6 | uint64(bits.TrailingZeros64(w))
				if end > last+1 {
					return last + 1
				}
				return end
			}
			word++
			if word == tableWords {
				break
			}
			w = ^c.bits[word]
		}
		idx = (ci + 1) << tableChunkShift
		if idx > last+1 {
			return last + 1
		}
	}
}

// nextRun finds the next contiguous run of materialized pages within
// [from, last]: (start, end) with end exclusive, ok false when no page
// remains in the window. This is the primitive BuildAMap and the
// transfer batching layers iterate on.
func (t *pageTable) nextRun(from, last uint64) (start, end uint64, ok bool) {
	start, ok = t.nextPresent(from, last)
	if !ok {
		return 0, 0, false
	}
	return start, t.runEnd(start, last), true
}

// countRange reports how many materialized pages fall within
// [first, last] using bitmap popcounts — no page is visited.
func (t *pageTable) countRange(first, last uint64) int {
	if t.count == 0 || first > last {
		return 0
	}
	n := 0
	for ci := first >> tableChunkShift; ci <= last>>tableChunkShift && ci < uint64(len(t.chunks)); ci++ {
		c := t.chunks[ci]
		if c == nil || c.live == 0 {
			continue
		}
		base := ci << tableChunkShift
		if first <= base && base+tableChunkMask <= last {
			n += c.live
			continue
		}
		for w := 0; w < tableWords; w++ {
			bitsWord := c.bits[w]
			if bitsWord == 0 {
				continue
			}
			lo := base + uint64(w)<<6
			hi := lo + 63
			if hi < first || lo > last {
				continue
			}
			if lo < first {
				bitsWord &^= (1 << (first - lo)) - 1
			}
			if hi > last {
				bitsWord &= (1 << (last - lo + 1)) - 1
			}
			n += bits.OnesCount64(bitsWord)
		}
	}
	return n
}
