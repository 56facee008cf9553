package vm

import "fmt"

// SegmentClass distinguishes locally backed segments from imaginary
// (port-backed) ones.
type SegmentClass int

const (
	// RealSeg data lives in local physical memory and/or on local disk.
	RealSeg SegmentClass = iota
	// ImagSeg data is owed by a backing port; pages are fetched through
	// the IPC system on first reference (§2.2).
	ImagSeg
)

// PageState tracks where a materialized page's data currently is.
type PageState struct {
	Resident bool // a physical frame holds the data
	OnDisk   bool // the local paging disk holds a (possibly stale) copy
	Dirty    bool // resident copy differs from the disk copy
}

// Page is one materialized page of a segment. Unmaterialized pages
// (conceptual zeros, or imaginary pages not yet fetched) have no Page.
// Pages live by value in the page table's slab, whose blocks are never
// moved: a pointer returned by a Segment method stays valid, and is the
// same pointer for the same index, until ReleaseFrames; callers must
// not retain it across segment death.
type Page struct {
	Index uint64 // page index within the segment
	Data  []byte
	State PageState

	// Prefetched marks a page that arrived unrequested, with a fault
	// reply or a prefetch stream, and has not been touched since. Only
	// the pager sets and clears it, to count prefetch hits; it is
	// host-side accounting that no simulated cost reads.
	Prefetched bool

	// borrowed marks Data as a slice the segment does not own (see
	// Borrow): it is never written through and never recycled. The mark
	// is host-side only; no simulated cost reads it. A page that is not
	// borrowed owns its Data.
	borrowed bool

	// frame links the page to its PhysMem LRU node (node index + 1; 0:
	// no frame). Only PhysMem sets it.
	frame int32

	// Version counts content mutations, so incremental transfer schemes
	// (pre-copy) can detect staleness cheaply. It is 32 bits so that,
	// with the flags and frame above packed into one word, a Page is 48
	// bytes.
	Version uint32
}

// MarkWritten records a mutation: the page becomes dirty relative to
// its disk copy and its version advances.
func (p *Page) MarkWritten() {
	p.State.Dirty = true
	p.Version++
}

// Segment is a memory object: a container of pages. Real segments are
// backed by local memory/disk; imaginary segments are backed by an IPC
// port (identified here by an opaque uint64 port id so this package
// stays below the IPC layer).
type Segment struct {
	// ID is the number an imaginary segment's backer knows it by, so
	// read requests and death notices name the object the backer owes.
	// Real segments need no number and leave it zero.
	ID          uint64
	Name        string
	Class       SegmentClass
	BackingPort uint64 // valid when Class == ImagSeg
	Size        uint64 // bytes

	pageSize int
	table    pageTable
	pool     *FramePool // nil: fall back to per-page allocation

	refs    int    // live region mappings
	onDeath func() // invoked when refs drops to zero (§2.2 Death message)
}

// NewSegment creates a real segment of the given size.
func NewSegment(name string, size uint64, pageSize int) *Segment {
	return &Segment{
		Name:     name,
		Class:    RealSeg,
		Size:     size,
		pageSize: pageSize,
	}
}

// NewImaginarySegment creates an imaginary segment whose data is owed by
// the given backing port, which knows it as segment id.
func NewImaginarySegment(name string, size uint64, pageSize int, backingPort, id uint64) *Segment {
	s := NewSegment(name, size, pageSize)
	s.ID = id
	s.Class = ImagSeg
	s.BackingPort = backingPort
	return s
}

// SetPool attaches a frame pool; subsequent page materializations and
// COW breaks draw their data frames from it, and ReleaseFrames returns
// them. The pool must serve frames of the segment's page size.
func (s *Segment) SetPool(p *FramePool) {
	if p != nil && p.PageSize() != s.pageSize {
		panic(fmt.Sprintf("vm: pool page size %d != segment page size %d", p.PageSize(), s.pageSize))
	}
	s.pool = p
}

// frame obtains a page-size data frame from the pool or the allocator.
// Contents are unspecified; every caller overwrites the full frame.
func (s *Segment) frame() []byte {
	if s.pool != nil {
		return s.pool.Get()
	}
	return make([]byte, s.pageSize)
}

// PageSize reports the segment's page size in bytes.
func (s *Segment) PageSize() int { return s.pageSize }

// Pages reports the number of pages the segment spans.
func (s *Segment) Pages() uint64 {
	return (s.Size + uint64(s.pageSize) - 1) / uint64(s.pageSize)
}

// Page returns the materialized page at index, or nil.
func (s *Segment) Page(index uint64) *Page { return s.table.get(index) }

// NextRun finds the next contiguous run of materialized pages within
// [from, last] (inclusive bounds, end exclusive). It is the batching
// primitive for run-oriented transfer: one ordered bitmap sweep, no key
// extraction, no sort.
func (s *Segment) NextRun(from, last uint64) (start, end uint64, ok bool) {
	return s.table.nextRun(from, last)
}

// Materialize installs data for page index, creating the Page if
// needed. The data is copied; len(data) must equal the page size (or be
// shorter for the final partial page).
func (s *Segment) Materialize(index uint64, data []byte) *Page {
	if index >= s.Pages() {
		panic(fmt.Sprintf("vm: materialize page %d beyond segment %q (%d pages)", index, s.Name, s.Pages()))
	}
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("vm: materialize with %d bytes > page size %d", len(data), s.pageSize))
	}
	p, present := s.table.ensure(index)
	if !present {
		// The slot may be recycled from an earlier page's tenure; reset
		// everything but the PhysMem link and any data frame left behind
		// for reuse.
		*p = Page{Index: index, Data: p.Data, borrowed: p.borrowed, frame: p.frame}
	}
	if p.borrowed {
		// The bytes belong to a lender: drop the reference without
		// writing into it.
		p.Data = nil
	}
	p.borrowed = false
	if p.Data == nil {
		p.Data = s.frame()
	}
	n := copy(p.Data, data)
	clear(p.Data[n:])
	return p
}

// Receive installs a page image that arrived in a message by
// borrowing it: a page image is immutable from the moment a message
// carries it, so the page reads it in place, capped at its length (an
// append cannot reach the next image of a run), and a write first gives
// the page a private frame (see Borrow). Over a present page it copies
// into an owned page's frame, or re-borrows over a borrowed one, so a
// duplicate delivery or a repair never changes how many frames the
// segment holds.
func (s *Segment) Receive(index uint64, data []byte) *Page {
	data = data[:len(data):len(data)]
	p := s.table.get(index)
	switch {
	case p == nil:
		return s.Borrow(index, data)
	case !p.borrowed && p.Data != nil:
		return s.Materialize(index, data)
	case len(data) > s.pageSize:
		panic(fmt.Sprintf("vm: receive with %d bytes > page size %d", len(data), s.pageSize))
	}
	p.Data, p.borrowed = data, true
	return p
}

// MaterializeRun installs count consecutive pages starting at start
// from data, which holds the pages' bytes concatenated in order (the
// final page may be partial). It returns the first installed page.
func (s *Segment) MaterializeRun(start uint64, count int, data []byte) *Page {
	var first *Page
	for i := 0; i < count; i++ {
		lo := i * s.pageSize
		hi := lo + s.pageSize
		if hi > len(data) {
			hi = len(data)
		}
		p := s.Materialize(start+uint64(i), data[lo:hi])
		if first == nil {
			first = p
		}
	}
	return first
}

// MaterializeZero installs an all-zero page (the FillZero fault result).
func (s *Segment) MaterializeZero(index uint64) *Page {
	return s.Materialize(index, nil)
}

// Borrow installs page index, which must not be materialized yet, over
// data the segment does not own, such as an immutable template image
// shared by many processes. The page reads data in place; a write or a
// Materialize first gives it a private frame, and releasing the segment
// never recycles data. The caller must keep data unchanged while any
// page borrows it.
func (s *Segment) Borrow(index uint64, data []byte) *Page {
	if index >= s.Pages() {
		panic(fmt.Sprintf("vm: borrow page %d beyond segment %q (%d pages)", index, s.Name, s.Pages()))
	}
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("vm: borrow with %d bytes > page size %d", len(data), s.pageSize))
	}
	p, present := s.table.ensure(index)
	if present {
		panic(fmt.Sprintf("vm: borrow over materialized page %d of %q", index, s.Name))
	}
	*p = Page{Index: index, Data: data, borrowed: true, frame: p.frame}
	return p
}

// zeroRead serves reads of unmaterialized pages without allocating: a
// shared all-zero buffer handed out read-only. Reads longer than the
// buffer (page sizes beyond 64 KB) fall back to allocation.
var zeroRead [1 << 16]byte

// Read returns up to n bytes of the page at index starting at off. A
// missing page reads as zeros — served from a shared zero buffer, so
// the returned slice is READ-ONLY; callers that mutate must copy.
// Bytes past the page's data (a short page) read as zeros too.
func (s *Segment) Read(index uint64, off, n int) []byte {
	p := s.table.get(index)
	if p == nil || p.Data == nil {
		if n <= len(zeroRead) {
			return zeroRead[:n:n]
		}
		return make([]byte, n)
	}
	out := make([]byte, n)
	if off < len(p.Data) {
		copy(out, p.Data[off:])
	}
	return out
}

// Write stores data into the page at index starting at off, performing
// the deferred copy if the page is borrowed, and marks it dirty. The
// page must already be materialized.
func (s *Segment) Write(index uint64, off int, data []byte) {
	p := s.table.get(index)
	if p == nil {
		panic(fmt.Sprintf("vm: write to unmaterialized page %d of %q", index, s.Name))
	}
	s.BreakCOW(p)
	copy(p.Data[off:], data)
	p.MarkWritten()
}

// BreakCOW gives p, a materialized page of s, a private copy of its
// data ahead of a write if it is borrowed: the copy on first write. An
// owned page is left as it is. The copy is host-side: no simulated
// cost is charged for it.
func (s *Segment) BreakCOW(p *Page) {
	if !p.borrowed {
		return
	}
	fresh := s.frame()
	copy(fresh, p.Data)
	if len(p.Data) < len(fresh) {
		clear(fresh[len(p.Data):])
	}
	p.Data = fresh
	p.borrowed = false
}

// ReleaseFrames returns every privately owned page frame to the
// attached pool and empties the page table. Borrowed data is left to
// its lender. Called when a segment's data is no longer needed (segment
// death, a pre-copied process's excision).
func (s *Segment) ReleaseFrames() { s.release(true) }

// DisownFrames empties the page table like ReleaseFrames, but the
// privately owned frames leave the pool instead of returning to it:
// the pool counts them returned and never hands them out again. An
// excised process's collapsed context refers to its page images in
// place, so they must stay unchanged for as long as the context lives.
func (s *Segment) DisownFrames() { s.release(false) }

// release empties the page table, recycling (or disowning) every
// privately owned frame.
func (s *Segment) release(recycle bool) {
	last := s.Pages() - 1
	for idx, ok := s.table.nextPresent(0, last); ok; idx, ok = s.table.nextPresent(idx+1, last) {
		p := s.table.get(idx)
		if s.pool != nil && p.Data != nil && !p.borrowed {
			if recycle {
				s.pool.Put(p.Data)
			} else {
				s.pool.disown(p.Data)
			}
		}
		p.Data = nil
		if idx == last {
			break
		}
	}
	s.table.reset()
}

// Ref records a new mapping reference (a region now maps this segment).
func (s *Segment) Ref() { s.refs++ }

// Unref drops a mapping reference; when the last reference dies the
// death callback fires, mirroring the Imaginary Segment Death message.
func (s *Segment) Unref() {
	if s.refs <= 0 {
		panic(fmt.Sprintf("vm: unref of unreferenced segment %q", s.Name))
	}
	s.refs--
	if s.refs == 0 {
		if s.onDeath != nil {
			fn := s.onDeath
			s.onDeath = nil
			fn()
		}
		// No mapping can reach the data anymore; recycle the frames.
		s.ReleaseFrames()
	}
}

// Refs reports the live mapping count.
func (s *Segment) Refs() int { return s.refs }

// OnDeath registers fn to run when the last mapping reference dies.
func (s *Segment) OnDeath(fn func()) { s.onDeath = fn }
