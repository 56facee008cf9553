package vm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPoolMatchesOwnershipModel runs random Materialize, Adopt, Borrow,
// Write, ReleaseFrames and DisownFrames steps over segments sharing one
// pool, against a model that only tracks which pages own their frame.
// After every step the pool's InUse must equal the frames that live
// owned pages hold (a borrowed page holds none), so it can never wrap
// below zero. Adopted windows must become the pages' frames, capped at
// a page; a disowned frame must keep its bytes and never be handed out
// again.
func TestPoolMatchesOwnershipModel(t *testing.T) {
	const ps, pages = 64, 24
	row := bytes.Repeat([]byte{0x5a}, ps) // a lender's image, never written
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := NewFramePool(ps)
		segs := make([]*Segment, 3)
		owned := make([]map[uint64]bool, len(segs)) // model: materialized page -> owns its frame
		for i := range segs {
			segs[i] = NewSegment("s", pages*ps, ps)
			segs[i].SetPool(pool)
			owned[i] = map[uint64]bool{}
		}
		type kept struct{ data, was []byte }
		var disowned []kept
		isDisowned := func(f []byte) bool {
			for _, d := range disowned {
				if &d.data[0] == &f[0] {
					return true
				}
			}
			return false
		}
		image := func() []byte {
			b := make([]byte, rng.Intn(ps+1))
			rng.Read(b)
			return b
		}
		for step := 0; step < 3000; step++ {
			si := rng.Intn(len(segs))
			seg, model := segs[si], owned[si]
			idx := uint64(rng.Intn(pages))
			var op string
			switch r := rng.Intn(20); {
			case r < 6:
				op = "Materialize"
				p := seg.Materialize(idx, image())
				model[idx] = true
				if isDisowned(p.Data) {
					t.Fatalf("seed %d step %d: Materialize drew a disowned frame", seed, step)
				}
			case r < 11:
				op = "Adopt"
				// A window onto a decoded frame: uncapped, and sometimes
				// short (the final page of a run), which is copied.
				frame := make([]byte, 3*ps)
				rng.Read(frame)
				n := ps
				if rng.Intn(4) == 0 {
					n = rng.Intn(ps)
				}
				w := frame[ps : ps+n]
				p := seg.Adopt(idx, w)
				model[idx] = true
				if n == ps && (&p.Data[0] != &w[0] || cap(p.Data) != ps) {
					t.Fatalf("seed %d step %d: adopted window not installed capped in place", seed, step)
				}
				if n < ps && (len(p.Data) != ps || !bytes.Equal(p.Data[:n], w) || n > 0 && &p.Data[0] == &w[0]) {
					t.Fatalf("seed %d step %d: a short window was not copied to a full frame", seed, step)
				}
			case r < 13:
				if _, ok := model[idx]; ok {
					continue
				}
				op = "Borrow"
				seg.Borrow(idx, row)
				model[idx] = false
			case r < 17:
				if _, ok := model[idx]; !ok {
					continue
				}
				op = "Write"
				seg.Write(idx, rng.Intn(ps-4), []byte{1, 2, 3, 4})
				model[idx] = true
			case r < 18:
				op = "ReleaseFrames"
				seg.ReleaseFrames()
				clear(model)
			default:
				op = "DisownFrames"
				for i := range model {
					if p := seg.Page(i); model[i] {
						disowned = append(disowned, kept{p.Data, bytes.Clone(p.Data)})
					}
				}
				seg.DisownFrames()
				clear(model)
			}
			want := uint64(0)
			for _, m := range owned {
				for _, own := range m {
					if own {
						want++
					}
				}
			}
			if got := pool.InUse(); got != want {
				t.Fatalf("seed %d step %d (%s): InUse %d, live owned pages %d (stats %+v)", seed, step, op, got, want, pool.Stats())
			}
		}
		for _, d := range disowned {
			if !bytes.Equal(d.data, d.was) {
				t.Fatalf("seed %d: a disowned frame changed", seed)
			}
		}
		if !bytes.Equal(row, bytes.Repeat([]byte{0x5a}, ps)) {
			t.Fatalf("seed %d: a write reached the lender's image", seed)
		}
	}
}
