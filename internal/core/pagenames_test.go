package core

import (
	"testing"

	"accentmig/internal/ipc"
	"accentmig/internal/netmsg"
	"accentmig/internal/vm"
)

// checkNames fails unless a carries cached page names and each is
// HashPage of the page it names.
func checkNames(t *testing.T, what string, a *ipc.MemAttachment, ps int) {
	t.Helper()
	names := a.CachedPageHashes(ps)
	if names == nil {
		t.Fatalf("%s: no cached page names", what)
	}
	if len(names) != a.PageCount() {
		t.Fatalf("%s: %d names for %d pages", what, len(names), a.PageCount())
	}
	k := 0
	for _, r := range a.Runs {
		for j := 0; j < r.Count; j++ {
			if want, _ := vm.HashPage(r.Page(j, ps), ps); names[k] != want {
				t.Errorf("%s: page %d (index %d) named %#x, want %#x", what, k, r.Index+uint64(j), names[k], want)
			}
			k++
		}
	}
}

// TestPageNamesSurviveElisionAndCompression follows one collapsed
// attachment down the source's manifest path: the manifest names its
// pages once, elision keeps the names of the pages that still ship, and
// compression's copy keeps them too. No step may leave a stale name.
func TestPageNamesSurviveElisionAndCompression(t *testing.T) {
	const ps = 512
	const pages = 11
	data := make([]byte, pages*ps-100) // the final page is short
	for i := range data {
		data[i] = byte(i*7 + i/ps)
	}
	clear(data[3*ps : 4*ps])               // a zero page
	copy(data[6*ps:7*ps], data[1*ps:2*ps]) // a twin of page 1
	a := &ipc.MemAttachment{
		Kind: ipc.AttachData, Size: uint64(len(data)), Collapsed: true, Copy: true,
		Runs: []vm.PageRun{{Index: 0, Count: pages, Data: data}},
	}
	rimas := &ipc.Message{Op: OpRIMAS, Mem: []*ipc.MemAttachment{a}}

	mb, n := buildManifest("job", 0, rimas, netmsg.Config{}, ps)
	if n != pages || len(mb.Atts) != 1 || !mb.Atts[0].WillShip {
		t.Fatalf("manifest names %d pages in %d attachments (ship %v)", n, len(mb.Atts), mb.Atts[0].WillShip)
	}
	checkNames(t, "manifest", a, ps)
	if &mb.Atts[0].Hashes[0] != &a.CachedPageHashes(ps)[0] {
		t.Error("the manifest hashed the pages apart from the attachment's names")
	}

	// Ship pages 0, 1, 2, 5, 8 and 10: runs of three, one, one and the
	// short final page.
	needed := []byte{0b0010_0111, 0b0000_0101}
	na, elided := elideAttachment(a, needed, ps)
	if elided != 5 || na.PageCount() != 6 {
		t.Fatalf("elision kept %d pages and dropped %d, want 6 and 5", na.PageCount(), elided)
	}
	checkNames(t, "elided", na, ps)
	checkNames(t, "original after elision", a, ps)

	cp := *na
	if compressAttachment(&cp, ps) != 6 {
		t.Fatal("compression skipped pages")
	}
	checkNames(t, "compressed", &cp, ps)
}
