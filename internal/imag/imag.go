// Package imag defines the copy-on-reference wire protocol of §2.2 —
// Imaginary Read Request / Imaginary Read Reply / Imaginary Segment
// Death — and the page store a backing process uses to service it. The
// store is shared by the NetMsgServer's IOU cache and by user-level
// backers (any application may lazy-ship data this way).
package imag

import (
	"fmt"
	"sort"
	"sync/atomic"

	"accentmig/internal/vm"
)

// IPC operation codes for the copy-on-reference protocol.
const (
	// OpReadRequest asks the backing port for one page (plus optional
	// prefetch). Body: *ReadRequest.
	OpReadRequest = 0x1001
	// OpReadReply delivers the requested page data. Body: *ReadReply.
	OpReadReply = 0x1002
	// OpSegmentDeath tells the backer all references to the imaginary
	// object have died. Body: *SegmentDeath.
	OpSegmentDeath = 0x1003
	// OpFlush asks the backer to push every still-owed page eagerly
	// (the residual-dependency "dissolve IOUs" extension). Body:
	// *FlushRequest.
	OpFlush = 0x1004
	// OpFlushReply carries the flushed pages. Body: *ReadReply.
	OpFlushReply = 0x1005
	// OpReadError tells the faulter its request can never be satisfied
	// (dead segment, page not held) so it stops retrying. Body:
	// *ReadError.
	OpReadError = 0x1006
	// OpHashRead asks any content-index holder — not necessarily the
	// origin backer — for the page whose content hash it names. A hit
	// answers with a normal OpReadReply stamped with the requester's
	// segment and page (so the faulter's reply path is unchanged); a
	// miss answers OpReadError and the faulter falls back to the origin
	// backer. Body: *HashRead.
	OpHashRead = 0x1007
)

// HashRead is the body of a content-addressed fault: fetch the page
// named Hash from whichever machine holds it. SegID and Page identify
// where the requester will install the bytes; the holder echoes them
// on the reply, which is how a reply about content gets routed back
// into an address space.
type HashRead struct {
	Hash  uint64
	SegID uint64
	Page  uint64
}

// HashReadBytes is the encoded size of a HashRead body.
const HashReadBytes = 32

// ReadRequest is the body of an imaginary fault message.
type ReadRequest struct {
	SegID    uint64
	PageIdx  uint64
	Prefetch int // additional nearby pages the faulter will accept
	// StreamTo, when nonzero, asks the backer to split its reply: the
	// demanded page returns alone on ReplyTo (a one-page reply unstalls
	// the faulter fastest), and the prefetch run follows as a separate
	// background-priority reply to this port.
	StreamTo uint64
}

// ReadRequestBytes is the encoded size of a ReadRequest body.
const ReadRequestBytes = 64

// ReadReply is the body of an imaginary fault reply. Pages travel
// run-batched (one header plus N consecutive pages per run); the first
// page of the first run is the demanded page, and everything after it
// is prefetched neighbours.
type ReadReply struct {
	SegID uint64
	Runs  []vm.PageRun
	// Streaming is the split-reply handshake flag. On a demand reply it
	// tells the faulter the prefetch run follows as background replies
	// on the request's StreamTo port; on the final background reply it
	// tells the stream receiver the split is complete, closing out one
	// outstanding-fetch slot.
	Streaming bool
	// StreamRuns names the pages in flight behind a Streaming demand
	// reply (indices only, no data), so the faulter can park a demand
	// fault on one of them until it lands instead of re-requesting it.
	StreamRuns []vm.PageRun
}

// PageCount reports the number of pages the reply delivers.
func (r *ReadReply) PageCount() int { return vm.RunPageCount(r.Runs) }

// Split divides a multi-page reply into the demanded page (the first
// page of the first run) and the prefetch remainder, for backers
// answering a StreamTo request. The demand half is marked Streaming.
// It returns a nil remainder when there is nothing to split.
func (r *ReadReply) Split() (*ReadReply, *ReadReply) {
	if r.PageCount() <= 1 || len(r.Runs) == 0 {
		return r, nil
	}
	first := r.Runs[0]
	ps := len(first.Data) / first.Count
	demand := &ReadReply{
		SegID:     r.SegID,
		Runs:      []vm.PageRun{{Index: first.Index, Count: 1, Data: first.Data[:ps]}},
		Streaming: true,
	}
	rest := &ReadReply{SegID: r.SegID}
	if first.Count > 1 {
		rest.Runs = append(rest.Runs, vm.PageRun{Index: first.Index + 1, Count: first.Count - 1, Data: first.Data[ps:]})
	}
	rest.Runs = append(rest.Runs, r.Runs[1:]...)
	for _, run := range rest.Runs {
		demand.StreamRuns = append(demand.StreamRuns, vm.PageRun{Index: run.Index, Count: run.Count})
	}
	return demand, rest
}

// PerPage explodes the reply into one-page replies. Stream remainders
// travel this way: a single page plus headers still fits one link
// fragment, so the wire cost matches the batched form, but a demand
// reply queued behind the stream waits out at most one page instead of
// the whole run. The last reply carries the Streaming completion flag.
func (r *ReadReply) PerPage() []*ReadReply {
	var out []*ReadReply
	for _, run := range r.Runs {
		ps := len(run.Data) / run.Count
		for j := 0; j < run.Count; j++ {
			out = append(out, &ReadReply{
				SegID: r.SegID,
				Runs:  []vm.PageRun{{Index: run.Index + uint64(j), Count: 1, Data: run.Page(j, ps)}},
			})
		}
	}
	if n := len(out); n > 0 {
		out[n-1].Streaming = true
	}
	return out
}

// Bytes reports the encoded size of the reply body. Accounting stays
// per-page — one 8-byte header per delivered page — matching the
// calibrated model regardless of run batching.
func (r *ReadReply) Bytes() int {
	return 32 + 8*r.PageCount() + vm.RunDataBytes(r.Runs)
}

// ReadError is the body of a negative imaginary fault reply: the
// backer can never produce the page, so the faulter must not retry.
type ReadError struct {
	SegID   uint64
	PageIdx uint64
	Reason  string
}

// ReadErrorBytes is the encoded size of a ReadError body.
const ReadErrorBytes = 48

// SegmentDeath is the body of a death notification.
type SegmentDeath struct{ SegID uint64 }

// SegmentDeathBytes is the encoded size of a SegmentDeath body.
const SegmentDeathBytes = 16

// FlushRequest asks for still-owed pages of a segment. MaxPages
// bounds the reply (0 means everything): a bounded flush lets demand
// read requests interleave with the bulk transfer instead of queuing
// behind one enormous reply for the whole residual dependency.
type FlushRequest struct {
	SegID    uint64
	MaxPages int
}

// FlushRequestBytes is the encoded size of a FlushRequest body.
const FlushRequestBytes = 16

// segIDCounter hands out simulation-wide unique imaginary segment IDs,
// offset far from vm's segment IDs so the two namespaces never collide.
// It is atomic so that independent simulation kernels on concurrent
// goroutines (parallel experiment trials) can allocate without racing;
// ID values are identities only and never influence behavior.
var segIDCounter atomic.Uint64

func init() { segIDCounter.Store(1 << 32) }

// NextSegID returns a fresh simulation-wide unique segment identity
// for an imaginary object created by a backer.
func NextSegID() uint64 {
	return segIDCounter.Add(1)
}

// Store holds the page images a backer owes to remote imaginary
// segments, tracking what has already been delivered so residual
// dependencies can be measured and flushed.
type Store struct {
	segs map[uint64]*StoreSegment
}

// storeRun is one contiguous extent of owed pages starting at start:
// one image per page in pages (aliasing the buffers the pages arrived
// in — absorption is copy-free), with a delivered bitmap per page.
type storeRun struct {
	start     uint64
	pages     [][]byte
	delivered []uint64 // bitmap, one bit per page of the run
}

func (r *storeRun) isDelivered(i int) bool {
	return r.delivered[i>>6]&(1<<(i&63)) != 0
}

// markDelivered sets page i's bit, reporting whether it flipped.
func (r *storeRun) markDelivered(i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if r.delivered[w]&b != 0 {
		return false
	}
	r.delivered[w] |= b
	return true
}

// StoreSegment is the owed pages of one imaginary segment, held as
// sorted non-overlapping runs.
type StoreSegment struct {
	ID       uint64
	Size     uint64
	PageSize int

	runs           []storeRun // sorted by start
	pageCount      int
	deliveredCount int
	dead           bool
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{segs: make(map[uint64]*StoreSegment)}
}

// AddSegment registers a segment the store will back.
func (s *Store) AddSegment(id, size uint64, pageSize int) *StoreSegment {
	seg := &StoreSegment{
		ID:       id,
		Size:     size,
		PageSize: pageSize,
	}
	s.segs[id] = seg
	return seg
}

// Segment finds a backed segment.
func (s *Store) Segment(id uint64) (*StoreSegment, bool) {
	seg, ok := s.segs[id]
	return seg, ok
}

// Drop removes a dead segment and reports how many owed pages were
// discarded undelivered.
func (s *Store) Drop(id uint64) int {
	seg, ok := s.segs[id]
	if !ok {
		return 0
	}
	delete(s.segs, id)
	seg.dead = true
	return seg.Remaining()
}

// Each calls fn for every live segment, in no particular order, for
// inspection: what a backer holds, image by image.
func (s *Store) Each(fn func(*StoreSegment)) {
	for _, g := range s.segs {
		fn(g)
	}
}

// Segments reports the live segment count.
func (s *Store) Segments() int { return len(s.segs) }

// TotalRemaining sums undelivered pages across all live segments — the
// whole residual dependency this backer still carries.
func (s *Store) TotalRemaining() int {
	n := 0
	for _, seg := range s.segs {
		n += seg.Remaining()
	}
	return n
}

// findRun locates the run containing page idx, or (-1, 0).
func (g *StoreSegment) findRun(idx uint64) (int, int) {
	ri := sort.Search(len(g.runs), func(i int) bool {
		r := &g.runs[i]
		return r.start+uint64(len(r.pages)) > idx
	})
	if ri < len(g.runs) && idx >= g.runs[ri].start {
		return ri, int(idx - g.runs[ri].start)
	}
	return -1, 0
}

// PutRun stores count consecutive pages starting at idx whose bytes are
// concatenated in data. The data slice is retained (absorption is
// copy-free); it must not overlap pages the store already holds.
func (g *StoreSegment) PutRun(idx uint64, count int, data []byte) {
	pages := make([][]byte, count)
	for i := range pages {
		pages[i] = vm.PageRun{Count: count, Data: data}.Page(i, g.PageSize)
	}
	g.PutPages(idx, pages)
}

// PutPages stores consecutive pages starting at idx, one image each.
// The page list and the images are retained, not copied; the pages
// must not overlap pages the store already holds.
func (g *StoreSegment) PutPages(idx uint64, pages [][]byte) {
	if len(pages) == 0 {
		return
	}
	r := storeRun{
		start:     idx,
		pages:     pages,
		delivered: make([]uint64, (len(pages)+63)/64),
	}
	at := sort.Search(len(g.runs), func(i int) bool { return g.runs[i].start >= idx })
	g.runs = append(g.runs, storeRun{})
	copy(g.runs[at+1:], g.runs[at:])
	g.runs[at] = r
	g.pageCount += len(pages)
}

// Put stores the image for page idx. The data slice is retained. A page
// the store already holds has its image replaced, never written into:
// the old image may be shared.
func (g *StoreSegment) Put(idx uint64, data []byte) {
	if ri, off := g.findRun(idx); ri >= 0 {
		g.runs[ri].pages[off] = data
		return
	}
	g.PutPages(idx, [][]byte{data})
}

// Get returns the image for page idx if the store holds it.
func (g *StoreSegment) Get(idx uint64) ([]byte, bool) {
	ri, off := g.findRun(idx)
	if ri < 0 {
		return nil, false
	}
	return g.runs[ri].pages[off], true
}

// Pages reports how many page images the segment holds.
func (g *StoreSegment) Pages() int { return g.pageCount }

// Remaining reports pages held but not yet delivered — the residual
// dependency the source carries for a lazily migrated process.
func (g *StoreSegment) Remaining() int {
	return g.pageCount - g.deliveredCount
}

// deliver marks run page (ri, off) delivered, keeping the segment count.
func (g *StoreSegment) deliver(ri, off int) {
	if g.runs[ri].markDelivered(off) {
		g.deliveredCount++
	}
}

// appendPage adds page (ri, off) to the reply, extending the final
// reply run when the page follows it in index space and its image
// starts where the run's data ends in the same buffer (pages stored
// from one PutRun buffer) — copy-free run slicing. Other pages each
// start a run of their own.
func (g *StoreSegment) appendPage(rep *ReadReply, ri, off int) {
	r := &g.runs[ri]
	idx := r.start + uint64(off)
	pg := r.pages[off]
	if n := len(rep.Runs); n > 0 {
		last := &rep.Runs[n-1]
		if d := last.Data; last.Index+uint64(last.Count) == idx && len(d) == last.Count*g.PageSize &&
			len(pg) > 0 && cap(d)-len(d) >= len(pg) && &d[:len(d)+1][len(d)] == &pg[0] {
			last.Count++
			last.Data = d[:len(d)+len(pg)]
			return
		}
	}
	rep.Runs = append(rep.Runs, vm.PageRun{Index: idx, Count: 1, Data: pg})
}

// Serve answers a ReadRequest: the demanded page plus up to prefetch
// nearby undelivered pages scanning forward from it. It returns nil if
// the demanded page is not held (a protocol error by the requester —
// the backer only owes pages it cached). Reply data aliases the store's
// page images — no page is copied to serve it.
func (g *StoreSegment) Serve(req *ReadRequest) *ReadReply {
	ri, off := g.findRun(req.PageIdx)
	if ri < 0 {
		return nil
	}
	rep := &ReadReply{SegID: g.ID}
	g.appendPage(rep, ri, off)
	g.deliver(ri, off)
	for i := uint64(1); i <= uint64(req.Prefetch); i++ {
		idx := req.PageIdx + i
		pri, poff := g.findRun(idx)
		if pri < 0 || g.runs[pri].isDelivered(poff) {
			continue
		}
		g.appendPage(rep, pri, poff)
		g.deliver(pri, poff)
	}
	return rep
}

// FlushAll returns every undelivered page in index order and marks them
// delivered. Used to dissolve the residual dependency eagerly.
func (g *StoreSegment) FlushAll() *ReadReply { return g.Flush(0) }

// Flush returns up to max undelivered pages in index order and marks
// them delivered (max <= 0 means all). Callers dissolve a large
// residual dependency with a sequence of bounded flushes so the backer
// stays responsive to concurrent demand reads. Runs are already sorted,
// so the sweep emits coalesced reply runs with no sort and no copy.
func (g *StoreSegment) Flush(max int) *ReadReply {
	rep := &ReadReply{SegID: g.ID}
	taken := 0
	for ri := range g.runs {
		r := &g.runs[ri]
		for off := range r.pages {
			if r.isDelivered(off) {
				continue
			}
			g.appendPage(rep, ri, off)
			g.deliver(ri, off)
			taken++
			if max > 0 && taken >= max {
				return rep
			}
		}
	}
	return rep
}

// String summarizes the segment.
func (g *StoreSegment) String() string {
	return fmt.Sprintf("storeSeg(%d: %d pages, %d owed)", g.ID, g.pageCount, g.Remaining())
}
