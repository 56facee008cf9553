package vm

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPoolMatchesOwnershipModel runs random Materialize, Receive,
// Borrow, Write, ReleaseFrames and DisownFrames steps over segments
// sharing one pool, against a model that only tracks which pages own
// their frame. After every step the pool's InUse must equal the frames
// that live owned pages hold (a borrowed page holds none), so it can
// never wrap below zero. A received image must be borrowed in place,
// capped at its length, unless the page owns a frame, which takes a
// copy; no write may reach a received image; a disowned frame must
// keep its bytes and never be handed out again.
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
		var disowned, received []kept
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
				op = "Receive"
				// An image a message carried: a window onto a run, and
				// sometimes short (the final page of a run).
				run := make([]byte, 3*ps)
				rng.Read(run)
				n := ps
				if rng.Intn(4) == 0 {
					n = rng.Intn(ps)
				}
				w := run[ps : ps+n]
				received = append(received, kept{w, bytes.Clone(w)})
				own := model[idx]
				p := seg.Receive(idx, w)
				if own {
					if len(p.Data) != ps || !bytes.Equal(p.Data[:n], w) || n > 0 && &p.Data[0] == &w[0] {
						t.Fatalf("seed %d step %d: Receive over an owned page did not copy into its frame", seed, step)
					}
				} else {
					model[idx] = false
					if len(p.Data) != n || cap(p.Data) != n || n > 0 && &p.Data[0] != &w[0] {
						t.Fatalf("seed %d step %d: the received image was not borrowed in place, capped", seed, step)
					}
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
		for _, d := range received {
			if !bytes.Equal(d.data, d.was) {
				t.Fatalf("seed %d: a write reached a received image", seed)
			}
		}
		if !bytes.Equal(row, bytes.Repeat([]byte{0x5a}, ps)) {
			t.Fatalf("seed %d: a write reached the lender's image", seed)
		}
	}
}
