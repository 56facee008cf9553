package vm

import (
	"fmt"
	"sort"
)

// Region is a contiguous validated range of an address space, mapped to
// a segment at an offset. Regions are page-aligned and non-overlapping.
type Region struct {
	Start  Addr
	End    Addr // exclusive
	Seg    *Segment
	SegOff uint64 // segment byte offset corresponding to Start
	Name   string
}

// Size reports the region size in bytes.
func (r *Region) Size() uint64 { return uint64(r.End - r.Start) }

// Contains reports whether a falls within the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// AddressSpace is a sparse process virtual address space: an ordered
// set of validated regions over up to 4 GB. Everything outside a region
// is BadMem.
type AddressSpace struct {
	cfg     Config
	ps      uint64 // page size as uint64 for address math
	regions []*Region
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace(cfg Config) (*AddressSpace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &AddressSpace{cfg: cfg, ps: uint64(cfg.pageSize())}, nil
}

// MustNewAddressSpace is NewAddressSpace for static configurations.
func MustNewAddressSpace(cfg Config) *AddressSpace {
	as, err := NewAddressSpace(cfg)
	if err != nil {
		panic(err)
	}
	return as
}

// PageSize reports the page size in bytes.
func (as *AddressSpace) PageSize() int { return int(as.ps) }

// pageAlign rounds size up to a whole number of pages.
func (as *AddressSpace) pageAlign(n uint64) uint64 {
	return (n + as.ps - 1) / as.ps * as.ps
}

// Validate allocates a fresh zero-filled region of size bytes at start,
// backed by a new real segment. This is Accent memory validation: the
// pages are conceptually zero and remain unmaterialized until touched.
func (as *AddressSpace) Validate(start Addr, size uint64, name string) (*Region, error) {
	if uint64(start)%as.ps != 0 {
		return nil, fmt.Errorf("vm: validate %q: start %#x not page aligned", name, start)
	}
	size = as.pageAlign(size)
	seg := NewSegment(name, size, int(as.ps))
	if as.cfg.Pool != nil {
		seg.SetPool(as.cfg.Pool)
	}
	return as.MapSegment(start, size, seg, 0, name)
}

// MapSegment maps size bytes of seg starting at segOff into the space
// at start. Used for mapped files and for mapping in imaginary objects.
func (as *AddressSpace) MapSegment(start Addr, size uint64, seg *Segment, segOff uint64, name string) (*Region, error) {
	if uint64(start)%as.ps != 0 || segOff%as.ps != 0 {
		return nil, fmt.Errorf("vm: map %q: unaligned start %#x or offset %#x", name, start, segOff)
	}
	size = as.pageAlign(size)
	if size == 0 {
		return nil, fmt.Errorf("vm: map %q: zero size", name)
	}
	if uint64(start)+size > MaxSpace {
		return nil, fmt.Errorf("vm: map %q: [%#x,%#x) exceeds the 4 GB space", name, start, uint64(start)+size)
	}
	if segOff+size > seg.Size {
		return nil, fmt.Errorf("vm: map %q: [%d,%d) exceeds segment size %d", name, segOff, segOff+size, seg.Size)
	}
	end := start + Addr(size)
	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].Start >= start })
	if idx > 0 && as.regions[idx-1].End > start {
		return nil, fmt.Errorf("vm: map %q: overlaps %q", name, as.regions[idx-1].Name)
	}
	if idx < len(as.regions) && as.regions[idx].Start < end {
		return nil, fmt.Errorf("vm: map %q: overlaps %q", name, as.regions[idx].Name)
	}
	r := &Region{Start: start, End: end, Seg: seg, SegOff: segOff, Name: name}
	as.regions = append(as.regions, nil)
	copy(as.regions[idx+1:], as.regions[idx:])
	as.regions[idx] = r
	seg.Ref()
	return r, nil
}

// Unmap removes a region, dropping its segment reference (which may
// trigger the segment's death callback).
func (as *AddressSpace) Unmap(r *Region) error {
	for i, rr := range as.regions {
		if rr == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			r.Seg.Unref()
			return nil
		}
	}
	return fmt.Errorf("vm: unmap: region %q not in this space", r.Name)
}

// Clear unmaps every region (process death / excision completion).
func (as *AddressSpace) Clear() {
	for _, r := range as.regions {
		r.Seg.Unref()
	}
	as.regions = nil
}

// Regions returns the regions in address order. The slice is shared;
// callers must not modify it.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// Lookup finds the region containing a, or nil.
func (as *AddressSpace) Lookup(a Addr) *Region {
	idx := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End > a })
	if idx < len(as.regions) && as.regions[idx].Contains(a) {
		return as.regions[idx]
	}
	return nil
}

// Place describes where an address lands: its region, segment, and the
// page index within the segment.
type Place struct {
	Region  *Region
	Seg     *Segment
	PageIdx uint64 // page index within the segment
	Offset  int    // byte offset within the page
}

// Resolve maps an address to its Place. ok is false for BadMem.
func (as *AddressSpace) Resolve(a Addr) (Place, bool) {
	r := as.Lookup(a)
	if r == nil {
		return Place{}, false
	}
	segByte := r.SegOff + uint64(a-r.Start)
	return Place{
		Region:  r,
		Seg:     r.Seg,
		PageIdx: segByte / as.ps,
		Offset:  int(segByte % as.ps),
	}, true
}

// Classify reports the accessibility of address a (§2.3).
func (as *AddressSpace) Classify(a Addr) Accessibility {
	pl, ok := as.Resolve(a)
	if !ok {
		return BadMem
	}
	return classifyPlace(pl)
}

func classifyPlace(pl Place) Accessibility {
	pg := pl.Seg.Page(pl.PageIdx)
	if pl.Seg.Class == ImagSeg {
		if pg == nil {
			return ImagMem
		}
		// Fetched imaginary pages are locally backed from then on.
		return RealMem
	}
	if pg == nil {
		return RealZeroMem
	}
	return RealMem
}

// Usage summarizes an address space's composition in bytes, the
// quantities of Table 4-1 plus residency for Table 4-2.
type Usage struct {
	Total    uint64 // validated bytes
	Real     uint64 // materialized, non-zero-conceptual data (RealMem + fetched imaginary)
	RealZero uint64 // validated but untouched
	Imag     uint64 // owed to imaginary segments, not yet fetched
	Resident uint64 // bytes resident in physical memory
}

// PctRealZero reports RealZero as a percentage of Total.
func (u Usage) PctRealZero() float64 {
	if u.Total == 0 {
		return 0
	}
	return 100 * float64(u.RealZero) / float64(u.Total)
}

// Usage scans the space and tallies its composition. Materialized page
// counts come from page-table bitmap popcounts, and residency from an
// ordered run sweep, so even a fully validated 4 GB Lisp space (8M page
// slots, a few thousand real pages) is cheap to summarize.
func (as *AddressSpace) Usage() Usage {
	var u Usage
	for _, r := range as.regions {
		u.Total += r.Size()
		firstPage := r.SegOff / as.ps
		lastPage := (r.SegOff + r.Size() - 1) / as.ps
		slots := lastPage - firstPage + 1
		mat := uint64(r.Seg.table.countRange(firstPage, lastPage))
		var res uint64
		cursor := firstPage
		for {
			start, end, ok := r.Seg.table.nextRun(cursor, lastPage)
			if !ok {
				break
			}
			for idx := start; idx < end; idx++ {
				if r.Seg.table.get(idx).State.Resident {
					res++
				}
			}
			cursor = end
			if cursor > lastPage {
				break
			}
		}
		u.Real += mat * as.ps
		u.Resident += res * as.ps
		if r.Seg.Class == ImagSeg {
			u.Imag += (slots - mat) * as.ps
		} else {
			u.RealZero += (slots - mat) * as.ps
		}
	}
	return u
}

// TouchedPages counts materialized pages across the space's regions.
func (as *AddressSpace) TouchedPages() int {
	n := 0
	for _, r := range as.regions {
		firstPage := r.SegOff / as.ps
		lastPage := (r.SegOff + r.Size() - 1) / as.ps
		n += r.Seg.table.countRange(firstPage, lastPage)
	}
	return n
}
