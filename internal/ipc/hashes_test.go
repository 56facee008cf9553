package ipc

import (
	"testing"

	"accentmig/internal/vm"
)

// patterned returns a run of n pages whose every page differs.
func patterned(index uint64, n, ps int) vm.PageRun {
	data := make([]byte, n*ps)
	for i := range data {
		data[i] = byte(i*7 + int(index) + 1)
	}
	return vm.PageRun{Index: index, Count: n, Data: data}
}

func TestPageHashesNameEveryPageOnce(t *testing.T) {
	ps := vm.DefaultPageSize
	a := &MemAttachment{Kind: AttachData, Runs: []vm.PageRun{patterned(0, 5, ps), patterned(9, 2, ps)}}
	if a.CachedPageHashes(ps) != nil {
		t.Fatal("a fresh attachment has cached names")
	}
	hs := a.PageHashes(ps)
	if len(hs) != 7 {
		t.Fatalf("%d names for 7 pages", len(hs))
	}
	k := 0
	for _, r := range a.Runs {
		for j := 0; j < r.Count; j++ {
			if want, _ := vm.HashPage(r.Page(j, ps), ps); hs[k] != want {
				t.Errorf("name %d = %#x, want %#x", k, hs[k], want)
			}
			k++
		}
	}
	if again := a.PageHashes(ps); &again[0] != &hs[0] {
		t.Error("a second PageHashes call hashed again")
	}
	if got := a.CachedPageHashes(ps); len(got) != 7 || &got[0] != &hs[0] {
		t.Error("CachedPageHashes does not return the cached names")
	}
	if a.CachedPageHashes(2*ps) != nil {
		t.Error("names cached at one page size served for another")
	}
}

func TestAppendPageDropsCachedHashes(t *testing.T) {
	ps := vm.DefaultPageSize
	a := &MemAttachment{Kind: AttachData}
	a.AppendPage(0, patterned(0, 1, ps).Data)
	a.PageHashes(ps)
	a.AppendPage(1, patterned(1, 1, ps).Data)
	if a.CachedPageHashes(ps) != nil {
		t.Fatal("AppendPage kept the cached names")
	}
	if hs := a.PageHashes(ps); len(hs) != 2 {
		t.Fatalf("%d names for 2 pages", len(hs))
	}
}

func TestSetPageHashesChecksLength(t *testing.T) {
	ps := vm.DefaultPageSize
	a := &MemAttachment{Kind: AttachData, Runs: []vm.PageRun{patterned(0, 3, ps)}}
	a.SetPageHashes([]uint64{1, 2, 3}, ps)
	if got := a.PageHashes(ps); len(got) != 3 || got[2] != 3 {
		t.Fatalf("installed names not served: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("two names for three pages were accepted")
		}
	}()
	a.SetPageHashes([]uint64{1, 2}, ps)
}
