package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// refPhysMem is PhysMem as it was when a map keyed by (segment ID, page
// index) found a page's LRU node: the reference model for the link the
// node now keeps in the page itself.
type refPhysMem struct {
	capFrames int
	nodes     []frameNode
	head      int32
	tail      int32
	free      int32
	used      int
	index     map[refFrameKey]int32
}

type refFrameKey struct {
	segID uint64
	index uint64
}

func newRefPhysMem(frames int) *refPhysMem {
	return &refPhysMem{capFrames: frames, head: nilNode, tail: nilNode, free: nilNode,
		index: map[refFrameKey]int32{}}
}

func (pm *refPhysMem) Len() int { return pm.used }

func (pm *refPhysMem) Resident(seg *Segment, index uint64) bool {
	_, ok := pm.index[refFrameKey{seg.ID, index}]
	return ok
}

func (pm *refPhysMem) alloc() int32 {
	if pm.free != nilNode {
		n := pm.free
		pm.free = pm.nodes[n].next
		return n
	}
	pm.nodes = append(pm.nodes, frameNode{})
	return int32(len(pm.nodes) - 1)
}

func (pm *refPhysMem) unlink(n int32) {
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

func (pm *refPhysMem) pushFront(n int32) {
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

func (pm *refPhysMem) release(n int32) {
	nd := &pm.nodes[n]
	nd.seg = nil
	nd.next = pm.free
	pm.free = n
}

func (pm *refPhysMem) Touch(seg *Segment, index uint64) bool {
	n, ok := pm.index[refFrameKey{seg.ID, index}]
	if !ok {
		return false
	}
	if pm.head != n {
		pm.unlink(n)
		pm.pushFront(n)
	}
	return true
}

func (pm *refPhysMem) Insert(seg *Segment, index uint64) []Evicted {
	pg := seg.Page(index)
	if pg == nil {
		panic(fmt.Sprintf("vm: Insert of unmaterialized page %d of %q", index, seg.Name))
	}
	key := refFrameKey{seg.ID, index}
	if n, ok := pm.index[key]; ok {
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
		pm.unlink(back)
		pm.release(back)
		pm.used--
		delete(pm.index, refFrameKey{fe.seg.ID, fe.index})
		ev := Evicted{Seg: fe.seg, Index: fe.index}
		if vp := fe.seg.Page(fe.index); vp != nil {
			ev.WasDirty = vp.State.Dirty
			vp.State.Resident = false
			vp.State.OnDisk = true
			vp.State.Dirty = false
		}
		evicted = append(evicted, ev)
	}
	n := pm.alloc()
	pm.nodes[n].seg = seg
	pm.nodes[n].index = index
	pm.pushFront(n)
	pm.index[key] = n
	pm.used++
	pg.State.Resident = true
	return evicted
}

func (pm *refPhysMem) RemoveSegment(seg *Segment) {
	var next int32
	for n := pm.head; n != nilNode; n = next {
		next = pm.nodes[n].next
		fe := pm.nodes[n]
		if fe.seg.ID != seg.ID {
			continue
		}
		pm.unlink(n)
		pm.release(n)
		pm.used--
		delete(pm.index, refFrameKey{fe.seg.ID, fe.index})
		if pg := fe.seg.Page(fe.index); pg != nil {
			pg.State.Resident = false
		}
	}
}

func (pm *refPhysMem) ResidentPages() []Evicted {
	out := make([]Evicted, 0, pm.used)
	for n := pm.head; n != nilNode; n = pm.nodes[n].next {
		fe := pm.nodes[n]
		out = append(out, Evicted{Seg: fe.seg, Index: fe.index})
	}
	return out
}

// TestPhysMatchesReferenceModel drives PhysMem and the map-keyed
// reference with the same random Insert/Touch/RemoveSegment/
// Materialize/Write/ReleaseFrames sequence over several segments, each
// model owning its own copy of the segments, and compares every
// observable: evictions with their WasDirty, Touch and Resident
// answers, Len, ResidentPages order and every page's state. Released
// segments are re-materialized and re-inserted while their old frames
// are still linked, the case where a page-held link must behave as a
// key that outlives the page; a touch of such a page, which PhysMem
// reaches through the page and the reference by key, must move the
// same node.
func TestPhysMatchesReferenceModel(t *testing.T) {
	const (
		nSegs  = 4
		nPages = 3*tableChunkPages/2 + 7 // two chunks, the second partial
		frames = 48
	)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pm, ref := NewPhysMem(frames), newRefPhysMem(frames)
		var segs, refSegs [nSegs]*Segment
		segNo := map[*Segment]int{}
		for i := range segs {
			segs[i] = NewSegment(fmt.Sprintf("s%d", i), nPages*512, 512)
			refSegs[i] = NewSegment(fmt.Sprintf("s%d", i), nPages*512, 512)
			segNo[segs[i]], segNo[refSegs[i]] = i, i
		}
		same := func(step int, what string, got, want []Evicted) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %s: %d entries, reference %d", seed, step, what, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if segNo[g.Seg] != segNo[w.Seg] || g.Index != w.Index || g.WasDirty != w.WasDirty {
					t.Fatalf("seed %d step %d: %s[%d] = {s%d %d dirty=%v}, reference {s%d %d dirty=%v}",
						seed, step, what, i, segNo[g.Seg], g.Index, g.WasDirty, segNo[w.Seg], w.Index, w.WasDirty)
				}
			}
		}
		for step := 0; step < 6000; step++ {
			si := rng.Intn(nSegs)
			s, rs := segs[si], refSegs[si]
			// Favor a hot set, so pages are touched and re-inserted.
			idx := uint64(rng.Intn(nPages))
			if rng.Intn(2) == 0 {
				idx %= 64
			}
			switch op := rng.Intn(100); {
			case op < 20:
				data := []byte{byte(step), byte(idx)}
				s.Materialize(idx, data)
				rs.Materialize(idx, data)
			case op < 28:
				if s.Page(idx) != nil {
					s.Write(idx, 0, []byte{byte(step)})
					rs.Write(idx, 0, []byte{byte(step)})
				}
			case op < 60:
				if s.Page(idx) != nil {
					same(step, "Insert", pm.Insert(s, idx), ref.Insert(rs, idx))
				}
			case op < 88:
				// A touch follows the page in hand, as the pager's does,
				// so it reaches only a materialized page; the reference
				// finds the node by key.
				if p := s.Page(idx); p != nil {
					if got, want := pm.Touch(p), ref.Touch(rs, idx); got != want {
						t.Fatalf("seed %d step %d: Touch(s%d, %d) = %v, reference %v", seed, step, si, idx, got, want)
					}
				}
			case op < 92:
				pm.RemoveSegment(s)
				ref.RemoveSegment(rs)
			case op < 96:
				s.ReleaseFrames()
				rs.ReleaseFrames()
			default:
				if got, want := pm.Resident(s, idx), ref.Resident(rs, idx); got != want {
					t.Fatalf("seed %d step %d: Resident(s%d, %d) = %v, reference %v", seed, step, si, idx, got, want)
				}
			}
			if pm.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, pm.Len(), ref.Len())
			}
			if step%97 == 0 {
				same(step, "ResidentPages", pm.ResidentPages(), ref.ResidentPages())
			}
		}
		same(-1, "ResidentPages", pm.ResidentPages(), ref.ResidentPages())
		for si := range segs {
			for idx := uint64(0); idx < nPages; idx++ {
				p, rp := segs[si].Page(idx), refSegs[si].Page(idx)
				if (p == nil) != (rp == nil) {
					t.Fatalf("seed %d: s%d page %d materialized=%v, reference %v", seed, si, idx, p != nil, rp != nil)
				}
				if p != nil && p.State != rp.State {
					t.Fatalf("seed %d: s%d page %d state %+v, reference %+v", seed, si, idx, p.State, rp.State)
				}
				if pm.Resident(segs[si], idx) != ref.Resident(refSegs[si], idx) {
					t.Fatalf("seed %d: s%d page %d Resident disagrees", seed, si, idx)
				}
			}
		}
	}
}
