package imag

import (
	"bytes"
	"testing"
	"testing/quick"

	"accentmig/internal/vm"
)

func seed(t *testing.T) (*Store, *StoreSegment) {
	t.Helper()
	st := NewStore()
	seg := st.AddSegment(1, 10*512, 512)
	for i := uint64(0); i < 10; i++ {
		seg.Put(i, []byte{byte(i)})
	}
	return st, seg
}

// flatPage is one delivered page, unbatched from the reply's runs.
type flatPage struct {
	Index uint64
	Data  []byte
}

func flatten(rep *ReadReply, pageSize int) []flatPage {
	if rep == nil {
		return nil
	}
	var out []flatPage
	for _, run := range rep.Runs {
		for j := 0; j < run.Count; j++ {
			out = append(out, flatPage{run.Index + uint64(j), run.Page(j, pageSize)})
		}
	}
	return out
}

func TestServeDemandPage(t *testing.T) {
	_, seg := seed(t)
	rep := seg.Serve(&ReadRequest{SegID: 1, PageIdx: 3})
	pages := flatten(rep, 512)
	if rep == nil || len(pages) != 1 {
		t.Fatalf("rep = %+v", rep)
	}
	if pages[0].Index != 3 || pages[0].Data[0] != 3 {
		t.Errorf("page = %+v", pages[0])
	}
	if seg.Remaining() != 9 {
		t.Errorf("Remaining = %d, want 9", seg.Remaining())
	}
}

func TestServeWithPrefetch(t *testing.T) {
	_, seg := seed(t)
	rep := seg.Serve(&ReadRequest{SegID: 1, PageIdx: 2, Prefetch: 3})
	pages := flatten(rep, 512)
	if len(pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(pages))
	}
	for i, pg := range pages {
		if pg.Index != uint64(2+i) {
			t.Errorf("page %d has index %d", i, pg.Index)
		}
	}
}

func TestServePrefetchSkipsDelivered(t *testing.T) {
	_, seg := seed(t)
	seg.Serve(&ReadRequest{PageIdx: 3}) // deliver 3
	rep := seg.Serve(&ReadRequest{PageIdx: 2, Prefetch: 3})
	pages := flatten(rep, 512)
	// Wants 3,4,5 but 3 already went: expect demand 2 + prefetch 4,5.
	if len(pages) != 3 {
		t.Fatalf("pages = %+v", pages)
	}
	if pages[1].Index != 4 || pages[2].Index != 5 {
		t.Errorf("prefetch indices = %d,%d", pages[1].Index, pages[2].Index)
	}
}

func TestServePrefetchStopsAtEnd(t *testing.T) {
	_, seg := seed(t)
	rep := seg.Serve(&ReadRequest{PageIdx: 8, Prefetch: 15})
	if n := rep.PageCount(); n != 2 {
		t.Errorf("pages = %d, want 2 (8 and 9)", n)
	}
}

func TestServeMissingPage(t *testing.T) {
	st := NewStore()
	seg := st.AddSegment(1, 10*512, 512)
	seg.Put(0, []byte{0})
	if rep := seg.Serve(&ReadRequest{PageIdx: 5}); rep != nil {
		t.Errorf("served a page never cached: %+v", rep)
	}
}

func TestFlushAllOrdersAndDrains(t *testing.T) {
	_, seg := seed(t)
	seg.Serve(&ReadRequest{PageIdx: 4})
	rep := seg.FlushAll()
	pages := flatten(rep, 512)
	if len(pages) != 9 {
		t.Fatalf("flushed %d, want 9", len(pages))
	}
	for i := 1; i < len(pages); i++ {
		if pages[i].Index <= pages[i-1].Index {
			t.Fatal("flush not in index order")
		}
	}
	if seg.Remaining() != 0 {
		t.Errorf("Remaining = %d after flush", seg.Remaining())
	}
	if again := seg.FlushAll(); again.PageCount() != 0 {
		t.Errorf("second flush returned %d pages", again.PageCount())
	}
}

// TestRunBatchedServe checks that contiguous pages of one store run
// come back coalesced into a single reply run that aliases the store's
// buffer rather than copying it.
func TestRunBatchedServe(t *testing.T) {
	st := NewStore()
	seg := st.AddSegment(1, 16*512, 512)
	data := make([]byte, 8*512)
	for i := range data {
		data[i] = byte(i / 512)
	}
	seg.PutRun(4, 8, data)
	rep := seg.Serve(&ReadRequest{PageIdx: 5, Prefetch: 4})
	if len(rep.Runs) != 1 {
		t.Fatalf("reply has %d runs, want 1 coalesced: %+v", len(rep.Runs), rep.Runs)
	}
	run := rep.Runs[0]
	if run.Index != 5 || run.Count != 5 {
		t.Fatalf("run = {%d,%d}, want {5,5}", run.Index, run.Count)
	}
	if &run.Data[0] != &data[512] {
		t.Error("reply run copied the store buffer instead of aliasing it")
	}
	for j := 0; j < run.Count; j++ {
		if pg := run.Page(j, 512); pg[0] != byte(1+j) {
			t.Errorf("page %d content = %d, want %d", j, pg[0], 1+j)
		}
	}
}

func TestDrop(t *testing.T) {
	st, seg := seed(t)
	seg.Serve(&ReadRequest{PageIdx: 0})
	if n := st.Drop(1); n != 9 {
		t.Errorf("Drop returned %d undelivered, want 9", n)
	}
	if _, ok := st.Segment(1); ok {
		t.Error("segment still present after Drop")
	}
	if st.Drop(1) != 0 {
		t.Error("double Drop returned pages")
	}
}

func TestReplyBytes(t *testing.T) {
	rep := &ReadReply{Runs: []vm.PageRun{{Index: 0, Count: 2, Data: make([]byte, 1024)}}}
	if got := rep.Bytes(); got != 32+2*(8+512) {
		t.Errorf("Bytes = %d", got)
	}
	// Splitting the same pages across runs must not change the price:
	// accounting stays per-page regardless of batching.
	split := &ReadReply{Runs: []vm.PageRun{
		{Index: 0, Count: 1, Data: make([]byte, 512)},
		{Index: 7, Count: 1, Data: make([]byte, 512)},
	}}
	if split.Bytes() != rep.Bytes() {
		t.Errorf("split Bytes = %d, batched Bytes = %d", split.Bytes(), rep.Bytes())
	}
}

// Property: serving never delivers the same page twice across any
// request sequence, and Remaining is consistent with deliveries.
func TestQuickNoDoubleDelivery(t *testing.T) {
	f := func(reqs []struct {
		Idx uint8
		Pf  uint8
	}) bool {
		st := NewStore()
		seg := st.AddSegment(1, 64*512, 512)
		for i := uint64(0); i < 64; i++ {
			seg.Put(i, []byte{byte(i)})
		}
		seen := map[uint64]int{}
		for _, rq := range reqs {
			rep := seg.Serve(&ReadRequest{PageIdx: uint64(rq.Idx % 64), Prefetch: int(rq.Pf % 16)})
			if rep == nil {
				continue
			}
			for i, pg := range flatten(rep, 512) {
				if i > 0 { // demand page may legitimately repeat
					seen[pg.Index]++
					if seen[pg.Index] > 1 {
						return false
					}
				}
			}
		}
		return seg.Remaining() >= 0 && seg.Remaining() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPutReplacesImage: replacing a page the store holds swaps in the
// new image and never writes into the old one, which may be shared
// (an absorbed attachment's images are an excised process's frames).
func TestPutReplacesImage(t *testing.T) {
	seg := NewStore().AddSegment(1, 4*512, 512)
	data := make([]byte, 4*512)
	for i := range data {
		data[i] = byte(i / 512)
	}
	was := append([]byte(nil), data...)
	seg.PutRun(0, 4, data)
	img := []byte{0xaa, 0xbb}
	seg.Put(1, img)
	if got, ok := seg.Get(1); !ok || &got[0] != &img[0] {
		t.Errorf("Get(1) = %v, want the new image", got)
	}
	if string(data) != string(was) {
		t.Error("Put wrote into the image it replaced")
	}
	if seg.Pages() != 4 {
		t.Errorf("Pages = %d, want 4", seg.Pages())
	}
}

// TestServeKeepsSeparateImagesApart: consecutive pages whose images sit
// in different buffers come back as separate reply runs, even when the
// first buffer has room past its page.
func TestServeKeepsSeparateImagesApart(t *testing.T) {
	seg := NewStore().AddSegment(1, 4*512, 512)
	a := make([]byte, 2*512) // spare capacity after page 0's image
	b := bytes.Repeat([]byte{0xbb}, 512)
	seg.PutPages(0, [][]byte{a[:512], b})
	pages := flatten(seg.Serve(&ReadRequest{PageIdx: 0, Prefetch: 1}), 512)
	if len(pages) != 2 || pages[1].Index != 1 || !bytes.Equal(pages[1].Data, b) {
		t.Fatalf("served %+v, want page 1 to be its own image", pages)
	}
}
