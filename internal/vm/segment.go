package vm

import (
	"fmt"
	"sync/atomic"
)

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

// String names the class.
func (c SegmentClass) String() string {
	if c == RealSeg {
		return "RealSeg"
	}
	return "ImagSeg"
}

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

	// borrowed marks Data as a slice the segment does not own (see
	// Borrow): it is never written through and never recycled. The mark
	// is host-side only; Shared and every simulated cost ignore it.
	borrowed bool

	// frame links the page to its PhysMem LRU node (node index + 1; 0:
	// no frame). Only PhysMem sets it. It sits in the padding after
	// borrowed, so a Page stays 56 bytes.
	frame int32

	// Version counts content mutations, so incremental transfer schemes
	// (pre-copy) can detect staleness cheaply.
	Version uint64

	// shares counts COW sharers including this page; a shared page's
	// Data must be copied before a write. A page that is not borrowed
	// owns its Data when shares == nil or *shares == 1.
	shares *int
}

// MarkWritten records a mutation: the page becomes dirty relative to
// its disk copy and its version advances.
func (p *Page) MarkWritten() {
	p.State.Dirty = true
	p.Version++
}

// Shared reports whether the page currently shares its Data copy-on-write.
func (p *Page) Shared() bool { return p.shares != nil && *p.shares > 1 }

// Segment is a memory object: a numbered container of pages. Real
// segments are backed by local memory/disk; imaginary segments are
// backed by an IPC port (identified here by an opaque uint64 port id so
// this package stays below the IPC layer).
type Segment struct {
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

// nextSegID is atomic so that independent simulation kernels running
// on concurrent goroutines (parallel experiment trials) can allocate
// segments without racing. ID values never influence simulation
// behavior, only identity, so allocation order does not matter.
var nextSegID atomic.Uint64

// NewSegment creates a real segment of the given size.
func NewSegment(name string, size uint64, pageSize int) *Segment {
	return &Segment{
		ID:       nextSegID.Add(1),
		Name:     name,
		Class:    RealSeg,
		Size:     size,
		pageSize: pageSize,
	}
}

// NewImaginarySegment creates an imaginary segment whose data is owed by
// the given backing port.
func NewImaginarySegment(name string, size uint64, pageSize int, backingPort uint64) *Segment {
	s := NewSegment(name, size, pageSize)
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

// Pool returns the attached frame pool, if any.
func (s *Segment) Pool() *FramePool { return s.pool }

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

// MaterializedPages reports how many pages hold actual data.
func (s *Segment) MaterializedPages() int { return s.table.count }

// NextRun finds the next contiguous run of materialized pages within
// [from, last] (inclusive bounds, end exclusive). It is the batching
// primitive for run-oriented transfer: one ordered bitmap sweep, no key
// extraction, no sort.
func (s *Segment) NextRun(from, last uint64) (start, end uint64, ok bool) {
	return s.table.nextRun(from, last)
}

// MaterializedInRange counts materialized pages within [first, last]
// by bitmap popcount.
func (s *Segment) MaterializedInRange(first, last uint64) int {
	return s.table.countRange(first, last)
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
		// everything but keep any frame left behind for reuse.
		p.Index = index
		p.State = PageState{}
		p.Version = 0
	}
	if p.borrowed || p.Shared() || (!present && p.shares != nil) {
		// The bytes belong to a lender or to the COW sharers: drop the
		// reference without writing into it. Sharers keep their count,
		// so their deferred-copy accounting is unchanged.
		p.Data = nil
	}
	p.shares = nil
	p.borrowed = false
	if p.Data == nil {
		p.Data = s.frame()
	}
	n := copy(p.Data, data)
	clear(p.Data[n:])
	return p
}

// Adopt installs data as page index's own frame without copying it.
// The segment takes the buffer over: the caller must hand it a page
// image nothing else references or will write, which in this simulator
// means a page window of a message that wire.DecodeMessage produced
// (ipc.Message.Owned) or a private copy made for this page. The window is capped at its length, so an append
// through the page cannot reach the bytes after it. A window shorter
// than a page is copied instead (Materialize), since an owned frame
// always spans a full page. The attached pool counts an adopted buffer
// as handed out, and ReleaseFrames recycles it like any frame.
func (s *Segment) Adopt(index uint64, data []byte) *Page {
	if len(data) != s.pageSize {
		return s.Materialize(index, data)
	}
	if index >= s.Pages() {
		panic(fmt.Sprintf("vm: adopt page %d beyond segment %q (%d pages)", index, s.Name, s.Pages()))
	}
	p, present := s.table.ensure(index)
	if !present {
		p.Index = index
		p.State = PageState{}
		p.Version = 0
	}
	if s.pool != nil {
		if p.Data != nil && !p.borrowed && !p.Shared() && (present || p.shares == nil) {
			// The frame Materialize would have written into is free again.
			s.pool.Put(p.Data)
		}
		s.pool.adopt()
	}
	p.shares = nil
	p.borrowed = false
	p.Data = data[:len(data):len(data)]
	return p
}

// Receive installs a page image that arrived in a message: adopted in
// place when the message owns its page buffers (owned is the message's
// ipc.Message.Owned), copied otherwise.
func (s *Segment) Receive(index uint64, data []byte, owned bool) *Page {
	if owned {
		return s.Adopt(index, data)
	}
	return s.Materialize(index, data)
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

// AdoptShared installs a page at index that shares data copy-on-write
// with the given source page (large-message map-in, §2.1). Both pages
// become COW sharers of the same backing bytes; a borrowed source
// lends them to the sharer too.
func (s *Segment) AdoptShared(index uint64, src *Page) *Page {
	if index >= s.Pages() {
		panic(fmt.Sprintf("vm: adopt page %d beyond segment %q", index, s.Name))
	}
	if src.shares == nil {
		n := 1
		src.shares = &n
	}
	*src.shares++
	p, present := s.table.ensure(index)
	if present && p.Data != nil && !p.Shared() && !p.borrowed && s.pool != nil {
		// Overwriting a privately owned page: its frame is free again.
		s.pool.Put(p.Data)
	}
	p.Index = index
	p.Data = src.Data
	p.shares = src.shares
	p.borrowed = src.borrowed
	p.State = src.State
	p.State.Resident = false // residency is per-site, set by the caller
	p.State.OnDisk = false
	p.Version = 0
	return p
}

// zeroRead serves reads of unmaterialized pages without allocating: a
// shared all-zero buffer handed out read-only. Reads longer than the
// buffer (page sizes beyond 64 KB) fall back to allocation.
var zeroRead [1 << 16]byte

// Read returns up to n bytes of the page at index starting at off. A
// missing page reads as zeros — served from a shared zero buffer, so
// the returned slice is READ-ONLY; callers that mutate must copy (or
// use ReadInto with their own buffer). Bytes past the page's data (a
// short page) read as zeros too.
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

// ReadInto fills dst from the page at index starting at off, zeroing
// any part not covered by materialized data (missing page, or a read
// past the page's extent). It is the copy-free counterpart of Read for
// callers that own a reusable buffer.
func (s *Segment) ReadInto(index uint64, off int, dst []byte) {
	p := s.table.get(index)
	if p == nil || p.Data == nil {
		clear(dst)
		return
	}
	n := 0
	if off < len(p.Data) {
		n = copy(dst, p.Data[off:])
	}
	clear(dst[n:])
}

// Write stores data into the page at index starting at off, performing
// the deferred copy if the page is COW-shared or borrowed, and marks it
// dirty. The page must already be materialized.
func (s *Segment) Write(index uint64, off int, data []byte) {
	p := s.table.get(index)
	if p == nil {
		panic(fmt.Sprintf("vm: write to unmaterialized page %d of %q", index, s.Name))
	}
	s.breakCOW(p)
	copy(p.Data[off:], data)
	p.MarkWritten()
}

// breakCOW gives p a private copy of its data if it is currently shared
// or borrowed. It reports whether a COW share was broken (the
// deferred-copy event the IPC cost model charges for); copying a
// borrowed page that no one else maps is host-side and reports false.
func (s *Segment) breakCOW(p *Page) bool {
	shared := p.Shared()
	if !shared && !p.borrowed {
		return false
	}
	if shared {
		*p.shares--
	}
	fresh := s.frame()
	copy(fresh, p.Data)
	if len(p.Data) < len(fresh) {
		clear(fresh[len(p.Data):])
	}
	p.Data = fresh
	p.shares = nil
	p.borrowed = false
	return shared
}

// BreakCOW exposes the deferred-copy operation for the IPC layer, which
// must charge its cost. It reports whether a COW share was broken; the
// host-side copy of a borrowed page is not one.
func (s *Segment) BreakCOW(index uint64) bool {
	p := s.table.get(index)
	if p == nil {
		return false
	}
	return s.breakCOW(p)
}

// ReleaseFrames returns every privately owned page frame to the
// attached pool and empties the page table. COW-shared frames are left
// to their surviving sharers, and borrowed data to its lender. Called
// when a segment's data is no longer needed (segment death, a
// pre-copied process's excision).
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
		if s.pool != nil && p.Data != nil && p.shares == nil && !p.borrowed {
			if recycle {
				s.pool.Put(p.Data)
			} else {
				s.pool.disown(p.Data)
			}
		}
		p.Data = nil
		p.shares = nil
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
