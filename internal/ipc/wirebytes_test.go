package ipc

import (
	"testing"

	"accentmig/internal/vm"
)

// These tests pin the wire-cost model arithmetically: every byte the
// estimate charges is accounted for by name, so manifest and elision
// pricing (which subtracts pages from attachments) lands on a tested
// baseline instead of an incidental one.

func TestWireBytesBodyOnly(t *testing.T) {
	m := &Message{Op: 1, BodyBytes: 100}
	if got, want := m.WireBytes(), msgHeaderBytes+100; got != want {
		t.Errorf("body-only message: %d bytes, want %d", got, want)
	}
}

func TestWireBytesDataAttachmentPerPageHeaders(t *testing.T) {
	ps := vm.DefaultPageSize
	mk := func(runs ...vm.PageRun) *Message {
		return &Message{Mem: []*MemAttachment{{Kind: AttachData, Runs: runs}}}
	}
	// One 3-page run and three 1-page runs carrying the same pages must
	// price identically: the estimate charges per page, not per run.
	data := make([]byte, 3*ps)
	batched := mk(vm.PageRun{Index: 0, Count: 3, Data: data})
	split := mk(
		vm.PageRun{Index: 0, Count: 1, Data: data[:ps]},
		vm.PageRun{Index: 1, Count: 1, Data: data[ps : 2*ps]},
		vm.PageRun{Index: 2, Count: 1, Data: data[2*ps:]},
	)
	want := msgHeaderBytes + dataDescBytes + 3*pageImageHeader + 3*ps
	if got := batched.WireBytes(); got != want {
		t.Errorf("batched run: %d bytes, want %d", got, want)
	}
	if got := split.WireBytes(); got != want {
		t.Errorf("split runs: %d bytes, want %d", got, want)
	}
}

func TestWireBytesPartialFinalPage(t *testing.T) {
	ps := vm.DefaultPageSize
	// A 2-page run whose final page is short: two page headers, but
	// only the bytes actually carried.
	data := make([]byte, ps+100)
	m := &Message{Mem: []*MemAttachment{{
		Kind: AttachData,
		Runs: []vm.PageRun{{Index: 0, Count: 2, Data: data}},
	}}}
	want := msgHeaderBytes + dataDescBytes + 2*pageImageHeader + ps + 100
	if got := m.WireBytes(); got != want {
		t.Errorf("partial final page: %d bytes, want %d", got, want)
	}
}

func TestWireBytesIOUAttachment(t *testing.T) {
	m := &Message{Mem: []*MemAttachment{{Kind: AttachIOU, SegID: 7, SegSize: 1 << 20}}}
	if got, want := m.WireBytes(), msgHeaderBytes+iouDescBytes; got != want {
		t.Errorf("IOU attachment: %d bytes, want %d", got, want)
	}
}

func TestWireBytesCompressedPayload(t *testing.T) {
	ps := vm.DefaultPageSize
	a := &MemAttachment{
		Kind: AttachData,
		Runs: []vm.PageRun{{Index: 0, Count: 4, Data: make([]byte, 4*ps)}},
	}
	m := &Message{Mem: []*MemAttachment{a}}
	raw := m.WireBytes()
	a.CompBytes = 300
	want := msgHeaderBytes + dataDescBytes + 4*pageImageHeader + 300
	if got := m.WireBytes(); got != want {
		t.Errorf("compressed payload: %d bytes, want %d", got, want)
	}
	if got := m.WireBytes(); got >= raw {
		t.Errorf("compression did not reduce the estimate: %d >= %d", got, raw)
	}
	// Headers are never compressed: the per-page charge survives.
	if want-msgHeaderBytes-dataDescBytes-300 != 4*pageImageHeader {
		t.Fatal("per-page header charge lost under compression")
	}
}

func TestPageRunAccessors(t *testing.T) {
	ps := vm.DefaultPageSize
	data := make([]byte, 2*ps+64)
	for i := range data {
		data[i] = byte(i)
	}
	r := vm.PageRun{Index: 10, Count: 3, Data: data}
	if got := r.Page(0, ps); len(got) != ps || &got[0] != &data[0] {
		t.Error("page 0 slice wrong")
	}
	if got := r.Page(2, ps); len(got) != 64 {
		t.Errorf("final partial page has %d bytes, want 64", len(got))
	}
	if got := vm.RunPageCount([]vm.PageRun{r, {Count: 5}}); got != 8 {
		t.Errorf("RunPageCount = %d, want 8", got)
	}
	if got := vm.RunDataBytes([]vm.PageRun{r}); got != len(data) {
		t.Errorf("RunDataBytes = %d, want %d", got, len(data))
	}
}

// TestPageSpansWalkTheWireLayout: over a message mixing data
// attachments (one with a short last page, one with Sums), an IOU and
// a compressed attachment, PageSpans reports increasing, disjoint
// spans, each one page header plus its image long, for exactly the
// uncompressed pages, and ends at WireBytes.
func TestPageSpansWalkTheWireLayout(t *testing.T) {
	ps := vm.DefaultPageSize
	short := make([]byte, 2*ps+100)
	for i := range short {
		short[i] = byte(i)
	}
	m := &Message{BodyBytes: 40, Mem: []*MemAttachment{
		{Kind: AttachData, Runs: []vm.PageRun{{Index: 0, Count: 3, Data: short}}},
		{Kind: AttachIOU, SegID: 7, SegSize: 1 << 20},
		{Kind: AttachData, Sums: []uint64{1, 2},
			Runs: []vm.PageRun{{Index: 4, Count: 1, Data: make([]byte, ps)}, {Index: 9, Count: 1, Data: make([]byte, ps)}}},
		{Kind: AttachData, CompBytes: 300, Runs: []vm.PageRun{{Index: 0, Count: 2, Data: make([]byte, 2*ps)}}},
	}}
	var pages [][]byte
	last := 0
	end := m.PageSpans(ps, func(lo, hi int, page []byte) {
		if lo < last {
			t.Errorf("span [%d, %d) starts before the previous one ended at %d", lo, hi, last)
		}
		if hi-lo != pageImageHeader+len(page) {
			t.Errorf("span [%d, %d) is %d bytes for a %d-byte image", lo, hi, hi-lo, len(page))
		}
		last = hi
		pages = append(pages, page)
	})
	if len(pages) != 5 {
		t.Fatalf("%d spans, want 5: the compressed attachment's pages have none", len(pages))
	}
	if len(pages[2]) != 100 || pages[2][0] != short[2*ps] {
		t.Errorf("third span carries %d bytes, want the 100-byte short last page", len(pages[2]))
	}
	if end != m.WireBytes() {
		t.Errorf("PageSpans ends at %d, WireBytes is %d", end, m.WireBytes())
	}
}
