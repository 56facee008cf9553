package vm

import "fmt"

// Evicted describes a page pushed out of physical memory. WasDirty
// tells the pager whether a write-back (with its disk cost) occurred;
// the page's state has already been updated to on-disk, non-resident.
type Evicted struct {
	Seg      *Segment
	Index    uint64
	WasDirty bool
}

// frameNode is one LRU list node. Nodes live in a flat slice and link
// by index, so steady-state insert/evict cycles recycle nodes through
// the free chain instead of allocating container/list elements. A
// resident page names its node in Page.frame, so a touch follows that
// link instead of hashing a (segment, index) key.
type frameNode struct {
	seg        *Segment
	index      uint64
	prev, next int32
}

const nilNode = int32(-1)

// PhysMem models a machine's physical page frames with global LRU
// replacement. Under Accent physical memory acts as a disk cache
// (§4.2.3), so frames are shared across all processes on the machine
// and stale file pages linger until squeezed out.
//
// A segment's pages link into one PhysMem at a time (the machine's):
// the link lives in the page, not in this structure. It outlives a
// ReleaseFrames that no RemoveSegment preceded, as an entry keyed by
// (segment, index) would: the page table keeps a linked page's slot
// until the frame is evicted or removed.
type PhysMem struct {
	capFrames int
	nodes     []frameNode
	head      int32 // most recently used
	tail      int32 // least recently used
	free      int32 // chain of recycled nodes through next
	used      int

	// evictScratch backs the slice Insert returns; it is reused on the
	// next Insert, so callers must consume evictions before re-inserting.
	evictScratch []Evicted
}

// NewPhysMem returns a physical memory of the given frame count.
func NewPhysMem(frames int) *PhysMem {
	if frames < 1 {
		panic("vm: NewPhysMem needs at least one frame")
	}
	return &PhysMem{
		capFrames: frames,
		nodes:     make([]frameNode, 0, frames),
		head:      nilNode,
		tail:      nilNode,
		free:      nilNode,
	}
}

// Capacity reports the frame count.
func (pm *PhysMem) Capacity() int { return pm.capFrames }

// Len reports the number of occupied frames.
func (pm *PhysMem) Len() int { return pm.used }

// Resident reports whether the page occupies a frame.
func (pm *PhysMem) Resident(seg *Segment, index uint64) bool {
	p, _ := seg.table.lookup(index)
	return p != nil && p.frame != 0
}

// drop frees node n: it leaves the LRU list for the free chain and its
// page's link is cleared. drop returns the page, marked non-resident,
// or nil if the page is no longer materialized.
func (pm *PhysMem) drop(n int32) *Page {
	fe := &pm.nodes[n]
	p, present := fe.seg.table.lookup(fe.index)
	p.frame = 0
	pm.unlink(n)
	pm.release(n)
	pm.used--
	if !present {
		return nil
	}
	p.State.Resident = false
	return p
}

// alloc obtains a node slot, reusing the free chain first.
func (pm *PhysMem) alloc() int32 {
	if pm.free != nilNode {
		n := pm.free
		pm.free = pm.nodes[n].next
		return n
	}
	pm.nodes = append(pm.nodes, frameNode{})
	return int32(len(pm.nodes) - 1)
}

// unlink removes node n from the LRU list (it stays allocated).
func (pm *PhysMem) unlink(n int32) {
	nd := &pm.nodes[n]
	if nd.prev != nilNode {
		pm.nodes[nd.prev].next = nd.next
	} else {
		pm.head = nd.next
	}
	if nd.next != nilNode {
		pm.nodes[nd.next].prev = nd.prev
	} else {
		pm.tail = nd.prev
	}
}

// pushFront links node n as most recently used.
func (pm *PhysMem) pushFront(n int32) {
	nd := &pm.nodes[n]
	nd.prev = nilNode
	nd.next = pm.head
	if pm.head != nilNode {
		pm.nodes[pm.head].prev = n
	}
	pm.head = n
	if pm.tail == nilNode {
		pm.tail = n
	}
}

// release returns node n to the free chain.
func (pm *PhysMem) release(n int32) {
	nd := &pm.nodes[n]
	nd.seg = nil
	nd.next = pm.free
	pm.free = n
}

// Touch marks p, a materialized page of a segment that links into pm,
// most recently used. It follows the page's own link, so a touch
// resolves nothing. It reports whether the page was resident.
func (pm *PhysMem) Touch(p *Page) bool {
	n := p.frame - 1
	if n == nilNode {
		return false
	}
	if pm.head != n {
		pm.unlink(n)
		pm.pushFront(n)
	}
	return true
}

// Insert makes the page resident (the page must be materialized),
// evicting least-recently-used frames if memory is full. Evicted pages
// are transitioned to on-disk and returned so the caller can charge
// write-back costs for the dirty ones. The returned slice is reused by
// the next Insert; callers must consume it before re-entering.
func (pm *PhysMem) Insert(seg *Segment, index uint64) []Evicted {
	pg := seg.Page(index)
	if pg == nil {
		panic(fmt.Sprintf("vm: Insert of unmaterialized page %d of %q", index, seg.Name))
	}
	if n := pg.frame - 1; n != nilNode {
		if pm.head != n {
			pm.unlink(n)
			pm.pushFront(n)
		}
		pg.State.Resident = true
		return nil
	}
	var evicted []Evicted
	for pm.used >= pm.capFrames {
		back := pm.tail
		fe := pm.nodes[back]
		ev := Evicted{Seg: fe.seg, Index: fe.index}
		if vp := pm.drop(back); vp != nil {
			ev.WasDirty = vp.State.Dirty
			vp.State.OnDisk = true
			vp.State.Dirty = false
		}
		if evicted == nil {
			evicted = pm.evictScratch[:0]
		}
		evicted = append(evicted, ev)
	}
	if evicted != nil {
		pm.evictScratch = evicted[:0]
	}
	n := pm.alloc()
	pm.nodes[n].seg = seg
	pm.nodes[n].index = index
	pm.pushFront(n)
	pg.frame = n + 1
	pm.used++
	pg.State.Resident = true
	return evicted
}

// RemoveSegment releases every frame belonging to seg.
func (pm *PhysMem) RemoveSegment(seg *Segment) {
	var next int32
	for n := pm.head; n != nilNode; n = next {
		next = pm.nodes[n].next
		if pm.nodes[n].seg == seg {
			pm.drop(n)
		}
	}
}

// ResidentPages lists (segment, index) pairs in LRU order, most recent
// first. Useful for resident-set extraction at migration time.
func (pm *PhysMem) ResidentPages() []Evicted {
	out := make([]Evicted, 0, pm.used)
	for n := pm.head; n != nilNode; n = pm.nodes[n].next {
		fe := pm.nodes[n]
		out = append(out, Evicted{Seg: fe.seg, Index: fe.index})
	}
	return out
}
