package vm

import "math/bits"

// The page table is the data-plane replacement for the old
// map[uint64]*Page: a two-level sparse structure whose leaves are dense
// chunks of Page slots plus an occupancy bitmap. It buys three things
// the map could not give at once:
//
//   - O(1) lookup with no hashing and no per-page *Page allocation
//     (pages live by value inside chunks);
//   - in-order iteration for free, so BuildAMap emits coalesced runs in
//     a single ordered sweep with no key extraction and no sort;
//   - run discovery by bitmap scan, so contiguous materialized runs can
//     be batched into single multi-page transfer operations.
//
// Chunks cover tableChunkPages page slots each. The top level is a
// dense slice indexed by chunk number, grown on demand to the highest
// chunk ever materialized: a fully validated 4 GB Lisp space whose
// pages sit in its low 30 MB carries about 235 chunk pointers, not
// 32 Ki, and every sweep stops at the last of them. Lookups stay a
// shift, a mask, and two indexing operations.

const (
	tableChunkShift = 8
	// tableChunkPages is the page span of one leaf chunk (256 pages =
	// 128 KB of address space at the Accent page size).
	tableChunkPages = 1 << tableChunkShift
	tableChunkMask  = tableChunkPages - 1
	tableWords      = tableChunkPages / 64
)

// pageChunk is one leaf: a dense array of Page slots and the occupancy
// bitmap that says which slots hold a materialized page.
type pageChunk struct {
	pages [tableChunkPages]Page
	bits  [tableWords]uint64
	live  int
}

// pageTable is the two-level sparse page table of one segment.
type pageTable struct {
	chunks []*pageChunk // indexed by pageIdx >> tableChunkShift; nil = empty
	count  int          // materialized pages across all chunks
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
	return &c.pages[slot]
}

// ensure returns the page slot for idx, creating its chunk (and growing
// the top level to reach it) if needed, and reports whether the slot
// already held a materialized page.
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
	word, bit := slot>>6, uint64(1)<<(slot&63)
	present := c.bits[word]&bit != 0
	if !present {
		c.bits[word] |= bit
		c.live++
		t.count++
	}
	return &c.pages[slot], present
}

// clear removes the page at idx from the table, returning the former
// slot (for frame recycling) or nil if it was not materialized.
func (t *pageTable) clear(idx uint64) *Page {
	ci := idx >> tableChunkShift
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return nil
	}
	c := t.chunks[ci]
	slot := idx & tableChunkMask
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if c.bits[word]&bit == 0 {
		return nil
	}
	c.bits[word] &^= bit
	c.live--
	t.count--
	return &c.pages[slot]
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
