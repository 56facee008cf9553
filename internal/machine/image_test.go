package machine_test

import (
	"testing"

	"accentmig/internal/machine"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
	"accentmig/internal/workload"
)

// refImageHash is ImageHash's definition walked one page slot at a
// time: per region its start address, then per slot a zero byte for an
// absent page or a one byte and the page's vm.HashPage name.
func refImageHash(pr *machine.Process, pageSize int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v>>(8*i)&0xff) * prime
		}
	}
	ps := uint64(pageSize)
	for _, r := range pr.AS.Regions() {
		mix64(uint64(r.Start))
		for idx := r.SegOff / ps; idx < (r.SegOff+r.Size()+ps-1)/ps; idx++ {
			pg := r.Seg.Page(idx)
			if pg == nil {
				h *= prime
				continue
			}
			h = (h ^ 1) * prime
			name, _ := vm.HashPage(pg.Data, pageSize)
			mix64(name)
		}
	}
	return h
}

// dataSlots places nine patterned pages in two runs around a gap.
var dataSlots = []uint64{0, 1, 2, 4, 5, 6, 7, 8, 9}

// imageProc builds a process with two regions: the k-th patterned page
// at slots[k] of a 16-page data region, and a sparse heap region with
// one page.
func imageProc(t *testing.T, m *machine.Machine, name string, slots []uint64) *machine.Process {
	t.Helper()
	pr, err := m.NewProcess(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps := m.PageSize()
	data, err := pr.AS.Validate(0, 16*uint64(ps), "data")
	if err != nil {
		t.Fatal(err)
	}
	for k, slot := range slots {
		img := make([]byte, ps)
		for j := range img {
			img[j] = byte(k*13 + j*7 + 1)
		}
		data.Seg.Materialize(slot, img)
	}
	heap, err := pr.AS.Validate(1<<24, 64*uint64(ps), "heap")
	if err != nil {
		t.Fatal(err)
	}
	heap.Seg.Materialize(40, []byte("one page far out"))
	return pr
}

func imageHash(t *testing.T, m *machine.Machine, name string) uint64 {
	t.Helper()
	h, ok := m.ImageHash(name)
	if !ok {
		t.Fatalf("no process %q", name)
	}
	return h
}

func TestImageHashMatchesReference(t *testing.T) {
	m := machine.New(sim.New(), "host", machine.Config{})
	pr := imageProc(t, m, "job", dataSlots)
	if got, want := imageHash(t, m, "job"), refImageHash(pr, m.PageSize()); got != want {
		t.Fatalf("ImageHash %#x, reference %#x", got, want)
	}
	if _, ok := m.ImageHash("nobody"); ok {
		t.Error("ImageHash of a missing process reported ok")
	}
}

func TestImageHashFlippedByte(t *testing.T) {
	m := machine.New(sim.New(), "host", machine.Config{})
	pr := imageProc(t, m, "job", dataSlots)
	before := imageHash(t, m, "job")
	pg := pr.AS.Regions()[0].Seg.Page(5)
	pg.Data[100] ^= 0x01
	if imageHash(t, m, "job") == before {
		t.Error("a flipped byte left the digest unchanged")
	}
	pg.Data[100] ^= 0x01
	if imageHash(t, m, "job") != before {
		t.Error("restoring the byte did not restore the digest")
	}
}

func TestImageHashAbsentVersusZeroPage(t *testing.T) {
	m := machine.New(sim.New(), "host", machine.Config{})
	pr := imageProc(t, m, "job", dataSlots)
	before := imageHash(t, m, "job")
	pr.AS.Regions()[0].Seg.MaterializeZero(3) // the gap slot
	after := imageHash(t, m, "job")
	if after == before {
		t.Error("materializing a zero page where none was left the digest unchanged")
	}
	if want := refImageHash(pr, m.PageSize()); after != want {
		t.Errorf("ImageHash %#x, reference %#x", after, want)
	}
}

func TestImageHashMovedPage(t *testing.T) {
	m := machine.New(sim.New(), "host", machine.Config{})
	imageProc(t, m, "a", dataSlots)
	imageProc(t, m, "b", dataSlots)
	if imageHash(t, m, "a") != imageHash(t, m, "b") {
		t.Fatal("identical images digest differently")
	}
	// c holds the same pages, but the last sits at slot 12 of the same
	// region instead of slot 9.
	moved := append(append([]uint64(nil), dataSlots[:len(dataSlots)-1]...), 12)
	c := imageProc(t, m, "c", moved)
	hc := imageHash(t, m, "c")
	if want := refImageHash(c, m.PageSize()); hc != want {
		t.Fatalf("ImageHash %#x, reference %#x", hc, want)
	}
	if hc == imageHash(t, m, "a") {
		t.Error("a page moved within its region left the digest unchanged")
	}
}

// TestImageHashSparseLisp checks the gap skipping against
// the slot-by-slot walk on the sparsest image the workloads build: a
// Lisp system, whose 4 GB space holds about 8M page slots and a few
// thousand present pages.
func TestImageHashSparseLisp(t *testing.T) {
	k := sim.New()
	defer k.Close()
	m := machine.New(k, "host", machine.Config{})
	b, err := workload.Build(m, workload.LispDel)
	if err != nil {
		t.Fatal(err)
	}
	name := workload.LispDel.String()
	got := imageHash(t, m, name)
	if want := refImageHash(b.Proc, m.PageSize()); got != want {
		t.Fatalf("ImageHash %#x, slot-by-slot reference %#x", got, want)
	}
}
