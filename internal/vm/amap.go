package vm

import "sort"

// AMapEntry is one coalesced run of addresses sharing an accessibility.
type AMapEntry struct {
	Start  Addr
	End    Addr // exclusive
	Access Accessibility
}

// Size reports the entry's extent in bytes.
func (e AMapEntry) Size() uint64 { return uint64(e.End - e.Start) }

// AMap is an Accessibility Map (§2.3): the complete accessibility
// picture of an address space at one instant, as a sorted list of
// coalesced runs. BadMem gaps between regions are implicit (anything
// not covered by an entry is BadMem).
type AMap struct {
	PageSize int
	Entries  []AMapEntry
	Stats    AMapStats
}

// AMapStats captures the work done to build the map; the migration cost
// model consumes these (AMap construction cost grows with process-map
// complexity, not with bytes — §4.3.1).
type AMapStats struct {
	Regions           int    // process map entries scanned
	Runs              int    // coalesced accessibility runs produced
	MaterializedPages int    // pages whose state had to be examined
	ValidatedPages    uint64 // total page slots covered
}

// BuildAMap scans the address space and produces its AMap. Only
// materialized pages are visited, so sparse gigabyte spaces scan fast
// while still yielding exact run structure.
func BuildAMap(as *AddressSpace) *AMap {
	m := &AMap{}
	m.Rebuild(as)
	return m
}

// Rebuild re-derives the map from the address space in place, reusing
// the entries buffer. The page table iterates materialized runs in
// address order, so the sweep needs no key extraction and no sort: each
// region contributes alternating gap/run entries in one ordered pass.
func (m *AMap) Rebuild(as *AddressSpace) {
	m.PageSize = as.PageSize()
	m.Entries = m.Entries[:0]
	m.Stats = AMapStats{}
	ps := as.ps
	for _, r := range as.regions {
		m.Stats.Regions++
		firstPage := r.SegOff / ps
		lastPage := (r.SegOff + r.Size() - 1) / ps
		m.Stats.ValidatedPages += lastPage - firstPage + 1

		gapAccess := RealZeroMem
		if r.Seg.Class == ImagSeg {
			gapAccess = ImagMem
		}

		cursor := firstPage
		for {
			start, end, ok := r.Seg.table.nextRun(cursor, lastPage)
			if !ok {
				break
			}
			m.Stats.MaterializedPages += int(end - start)
			if start > cursor {
				m.appendRun(AMapEntry{
					r.Start + Addr(cursor*ps-r.SegOff),
					r.Start + Addr(start*ps-r.SegOff),
					gapAccess,
				})
			}
			m.appendRun(AMapEntry{
				r.Start + Addr(start*ps-r.SegOff),
				r.Start + Addr(end*ps-r.SegOff),
				RealMem,
			})
			cursor = end
			if cursor > lastPage {
				break
			}
		}
		if cursor <= lastPage {
			m.appendRun(AMapEntry{
				r.Start + Addr(cursor*ps-r.SegOff),
				r.Start + Addr((lastPage+1)*ps-r.SegOff),
				gapAccess,
			})
		}
	}
	m.Stats.Runs = len(m.Entries)
}

// appendRun adds an entry, merging with the previous one when adjacent
// and same-class (regions mapping the same backing can abut).
func (m *AMap) appendRun(e AMapEntry) {
	if n := len(m.Entries); n > 0 {
		last := &m.Entries[n-1]
		if last.End == e.Start && last.Access == e.Access {
			last.End = e.End
			return
		}
	}
	m.Entries = append(m.Entries, e)
}

// Classify reports the accessibility of address a per this map.
func (m *AMap) Classify(a Addr) Accessibility {
	idx := sort.Search(len(m.Entries), func(i int) bool { return m.Entries[i].End > a })
	if idx < len(m.Entries) && a >= m.Entries[idx].Start {
		return m.Entries[idx].Access
	}
	return BadMem
}

// TotalBytes sums entry extents by accessibility class.
func (m *AMap) TotalBytes() map[Accessibility]uint64 {
	out := make(map[Accessibility]uint64, 3)
	for _, e := range m.Entries {
		out[e.Access] += e.Size()
	}
	return out
}

// WireBytes estimates the AMap's encoded size: a 16-byte header plus
// six bytes per entry — runs are delta-encoded (page-count varint plus
// class), the compact form Accent shipped ("some AMaps are slightly
// larger than others", §4.3.2, even for 4 GB Lisp spaces). Core context
// messages carry the AMap, so its size feeds the transfer cost.
func (m *AMap) WireBytes() int { return 16 + 6*len(m.Entries) }
