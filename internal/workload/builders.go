package workload

import (
	"fmt"
	"time"

	"accentmig/internal/trace"
	"accentmig/internal/vm"
)

// minprog: 645 validated pages, 278 real in ~50 runs, 140 resident,
// 24 pages touched after migration (all within the resident set — the
// paper's RS column shows Minprog's touches are covered by residency),
// and almost no computation: the "null trap" of migration trials.
func (b *builder) minprog() []trace.Op {
	code := b.region(0x00000, 320, "code")
	data := b.region(0x40000, 200, "data")
	stack := b.region(0x80000, 125, "stack")
	codeReal := b.scatter(code, 320, 160, 18)
	dataReal := b.scatter(data, 200, 80, 22)
	stackReal := b.scatter(stack, 125, 38, 10)

	resCode := b.makeResidentSubset(codeReal, 80)
	resData := b.makeResidentSubset(dataReal, 40)
	resStack := b.makeResidentSubset(stackReal, 20)

	var touched []vm.Addr
	touched = append(touched, resCode[:12]...)
	touched = append(touched, resData[:8]...)
	touched = append(touched, resStack[:4]...)
	b.touched = len(touched)

	ops := touchOps(b.shuffled(touched), 2*time.Millisecond, false)
	ops = append(ops,
		trace.Compute{D: 20 * time.Millisecond},
		trace.IOWait{D: 40 * time.Millisecond}, // print + wait for input
	)
	return ops
}

// lispTouchPlan describes how a Lisp variant touches memory remotely.
type lispTouchPlan func(b *builder, runs [][]vm.Addr) []trace.Op

// lisp validates the full 4 GB space at birth (§4.1: "Lisp processes
// validate their entire 4 gigabyte address spaces"), places the Lisp
// core image as realPages pages scattered across the low tens of
// megabytes in ~runCount runs, and defers touch behaviour to the plan.
func (b *builder) lisp(realPages, runCount uint64, plan lispTouchPlan) []trace.Op {
	const totalPages = 4_228_129_280 / pg
	reg := b.region(0, totalPages, "lisp-space")
	b.scatter(reg, 60_000, realPages, runCount)
	return plan(b, consecutiveRuns(b.real))
}

// consecutiveRuns groups sorted-by-construction addresses into maximal
// address-consecutive runs.
func consecutiveRuns(addrs []vm.Addr) [][]vm.Addr {
	var runs [][]vm.Addr
	var cur []vm.Addr
	for i, a := range addrs {
		if i > 0 && a == addrs[i-1]+pg {
			cur = append(cur, a)
			continue
		}
		if len(cur) > 0 {
			runs = append(runs, cur)
		}
		cur = []vm.Addr{a}
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// lispTTrace: evaluate T. 129 pages touched with no locality, 110 of
// them from the resident interpreter core; a few fresh cons pages
// allocate lazily (FillZero). Very little compute.
func lispTTrace(b *builder, runs [][]vm.Addr) []trace.Op {
	touched := b.pickClusters(runs, 129, 1)
	res := append([]vm.Addr(nil), touched[:110]...)
	res = append(res, b.sampleExcluding(b.real, touched, 262)...)
	b.resident = append(b.resident, res...)
	b.touched = len(touched)

	ops := touchOps(b.shuffled(touched), 5*time.Millisecond, false)
	ops = append(ops, b.consAllocs(30, 5*time.Millisecond)...)
	ops = append(ops, trace.Compute{D: 300 * time.Millisecond})
	return ops
}

// lispDelTrace: the Delaunay triangulation. 709 pages touched in small
// clusters (2-3 adjacent pages) spread across the heap — enough
// adjacency that one page of prefetch hits ~half the time, but larger
// prefetch mostly hauls dead weight. Heavy compute and screen I/O.
func lispDelTrace(b *builder, runs [][]vm.Addr) []trace.Op {
	touched := b.pickClusters(runs, 709, 3)
	// Table 4-3: the RS strategy moves 17.4% of Real vs 16.5% touched:
	// resident = 333 of the touched pages plus 39 others.
	res := append([]vm.Addr(nil), touched[:333]...)
	res = append(res, b.sampleExcluding(b.real, touched, 39)...)
	b.resident = append(b.resident, res...)
	b.touched = len(touched)

	ops := clusterTouchOps(touched, 40*time.Millisecond)
	ops = append(ops, b.consAllocs(200, 5*time.Millisecond)...)
	ops = append(ops,
		trace.IOWait{D: 3 * time.Second}, // graphical display
		trace.Compute{D: 2 * time.Second},
	)
	return ops
}

// pickClusters selects ~total pages as clusters of up to maxLen
// address-consecutive pages, one cluster per run, cycling runs until
// the budget is met. Clusters preserve intra-cluster address order.
func (b *builder) pickClusters(runs [][]vm.Addr, total, maxLen int) []vm.Addr {
	order := b.rng.Perm(len(runs))
	var out []vm.Addr
	offset := 0
	for len(out) < total {
		progressed := false
		for _, ri := range order {
			if len(out) >= total {
				break
			}
			run := runs[ri]
			if offset >= len(run) {
				continue
			}
			progressed = true
			n := 1
			if maxLen > 1 {
				n = 2 + b.rng.Intn(maxLen-1) // 2..maxLen
			}
			for i := 0; i < n && offset+i < len(run) && len(out) < total; i++ {
				out = append(out, run[offset+i])
			}
		}
		offset += maxLen
		if !progressed {
			panic(fmt.Sprintf("workload: cannot pick %d cluster pages from %d runs", total, len(runs)))
		}
	}
	return out
}

// clusterTouchOps touches pages cluster-by-cluster in shuffled cluster
// order, keeping intra-cluster sequentiality (so prefetch=1 can hit).
func clusterTouchOps(addrs []vm.Addr, perTouch time.Duration) []trace.Op {
	var ops []trace.Op
	for _, a := range addrs {
		ops = append(ops, trace.Compute{D: perTouch}, trace.Touch{Addr: a})
	}
	return ops
}

// consAllocs touches fresh zero pages high in the heap: cheap local
// FillZero faults that never cross the network.
func (b *builder) consAllocs(n int, perTouch time.Duration) []trace.Op {
	var ops []trace.Op
	base := vm.Addr(200_000 * pg) // far above the materialized core
	for i := 0; i < n; i++ {
		ops = append(ops,
			trace.Compute{D: perTouch},
			trace.Touch{Addr: base + vm.Addr(i*pg), Write: true})
	}
	return ops
}

// sampleExcluding picks n addresses from pool that are not in exclude.
func (b *builder) sampleExcluding(pool, exclude []vm.Addr, n int) []vm.Addr {
	ex := make(map[vm.Addr]bool, len(exclude))
	for _, a := range exclude {
		ex[a] = true
	}
	var cand []vm.Addr
	for _, a := range pool {
		if !ex[a] {
			cand = append(cand, a)
		}
	}
	if n > len(cand) {
		panic(fmt.Sprintf("workload: sample %d from %d candidates", n, len(cand)))
	}
	perm := b.rng.Perm(len(cand))
	out := make([]vm.Addr, n)
	for i := 0; i < n; i++ {
		out[i] = cand[perm[i]]
	}
	return out
}

// Pasmac address plan (shared by the three trials).
const (
	pmText   = vm.Addr(0x000000) // 300 pages, fully real
	pmHeap   = vm.Addr(0x100000) // 500 pages, sparsely real
	pmInput  = vm.Addr(0x200000) // 320 pages, the 164 KB input file
	pmDefs   = vm.Addr(0x300000) // 223 pages, the 114 KB definition files
	pmOutput = vm.Addr(0x500000) // 280 pages (PM-End only)
	pmStack  = vm.Addr(0x600000)
)

// pasmac builds the three macro-processor trials. All three share the
// file-processing shape — mapped files touched sequentially and in
// their entirety (§4.2.3) — and differ in how far processing has
// advanced at migration time.
func (b *builder) pasmac(k Kind) []trace.Op {
	text := b.region(pmText, 300, "text")
	var heapReal uint64
	var stackPages uint64
	switch k {
	case PMStart:
		heapReal, stackPages = 34, 514
	case PMMid:
		heapReal, stackPages = 29, 440
	case PMEnd:
		heapReal, stackPages = 28, 117
	}
	heap := b.region(pmHeap, 500, "heap")
	input := b.region(pmInput, 320, "input-file")
	defs := b.region(pmDefs, 223, "def-files")
	if k == PMEnd {
		out := b.region(pmOutput, 280, "output-file")
		b.fill(out, 0, 90) // output written so far
	}
	b.region(pmStack, stackPages, "stack")

	b.fill(text, 0, 300)
	b.fill(input, 0, 320)
	b.fill(defs, 0, 223)
	heapAddrs := b.scatter(heap, 500, heapReal, 25)

	textAddr := func(page int) vm.Addr { return pmText + vm.Addr(page*pg) }
	inputAddrs := func(from, to int) []vm.Addr {
		var out []vm.Addr
		for i := from; i < to; i++ {
			out = append(out, pmInput+vm.Addr(i*pg))
		}
		return out
	}
	defsAddrs := func(from, to int) []vm.Addr {
		var out []vm.Addr
		for i := from; i < to; i++ {
			out = append(out, pmDefs+vm.Addr(i*pg))
		}
		return out
	}
	textSample := func(n int) []vm.Addr {
		perm := b.rng.Perm(300)
		var out []vm.Addr
		for _, pgIdx := range perm[:n] {
			out = append(out, textAddr(pgIdx))
		}
		return out
	}

	var ops []trace.Op
	switch k {
	case PMStart:
		// Resident: recently read input window + text WS + heap.
		b.resident = append(b.resident, inputAddrs(120, 270)...)
		b.resident = append(b.resident, textSample(80)...)
		b.makeResidentSubset(heapAddrs, 28)
		// Touched: rest of input, all definition files, heap, text.
		b.touched = 150 + 223 + int(heapReal) + 102
		ops = append(ops, trace.SeqScan{Start: pmInput + 170*pg, Bytes: 150 * pg, PerTouch: 25 * time.Millisecond})
		ops = append(ops, trace.SeqScan{Start: pmDefs, Bytes: 223 * pg, PerTouch: 25 * time.Millisecond})
		ops = append(ops, touchOps(heapAddrs, 25*time.Millisecond, true)...)
		ops = append(ops, touchOps(textSample(102), 5*time.Millisecond, false)...)
		ops = append(ops, trace.Compute{D: 2 * time.Second})
	case PMMid:
		// The touched text working set stays resident across the
		// migration point, so the resident set covers it.
		textTouched := textSample(100)
		b.resident = append(b.resident, defsAddrs(0, 223)...)
		b.resident = append(b.resident, inputAddrs(220, 320)...)
		b.resident = append(b.resident, textTouched[:50]...)
		b.touched = 320 + int(heapReal) + 100
		// Expansion re-scans the whole input against the definitions.
		ops = append(ops, trace.SeqScan{Start: pmInput, Bytes: 320 * pg, PerTouch: 25 * time.Millisecond})
		ops = append(ops, touchOps(heapAddrs, 25*time.Millisecond, true)...)
		ops = append(ops, touchOps(textTouched, 5*time.Millisecond, false)...)
		// Output writes land in fresh zero pages of the stack region.
		ops = append(ops, writeBurst(pmStack, 150, 5*time.Millisecond)...)
		ops = append(ops, trace.Compute{D: 2 * time.Second})
	case PMEnd:
		b.resident = append(b.resident, addrRange(pmOutput, 0, 90)...)
		b.resident = append(b.resident, defsAddrs(0, 223)...)
		b.resident = append(b.resident, inputAddrs(120, 320)...)
		b.resident = append(b.resident, textSample(77)...)
		b.touched = 50 + 80 + int(heapReal) + 100
		// Little work left: the input tail, some definition lookups,
		// final heap state, and the last of the output.
		ops = append(ops, trace.SeqScan{Start: pmInput + 270*pg, Bytes: 50 * pg, PerTouch: 25 * time.Millisecond})
		ops = append(ops, touchOps(defsAddrs(0, 80), 25*time.Millisecond, false)...)
		ops = append(ops, touchOps(heapAddrs, 25*time.Millisecond, true)...)
		ops = append(ops, touchOps(textSample(100), 5*time.Millisecond, false)...)
		ops = append(ops, writeBurst(pmOutput+90*pg, 150, 5*time.Millisecond)...)
		ops = append(ops, trace.Compute{D: 2 * time.Second})
	}
	return ops
}

// writeBurst writes n fresh pages starting at base (FillZero + dirty).
func writeBurst(base vm.Addr, n int, perTouch time.Duration) []trace.Op {
	var ops []trace.Op
	for i := 0; i < n; i++ {
		ops = append(ops,
			trace.Compute{D: perTouch},
			trace.Touch{Addr: base + vm.Addr(i*pg), Write: true})
	}
	return ops
}

// addrRange enumerates page addresses [from, to) offset from base.
func addrRange(base vm.Addr, from, to int) []vm.Addr {
	var out []vm.Addr
	for i := from; i < to; i++ {
		out = append(out, base+vm.Addr(i*pg))
	}
	return out
}

// chess: long-lived and compute-bound. A contiguous 200-page core of
// code (the evaluator working set lives in its first 60 pages), more
// code and tables scattered behind it, and a trace that settles into a
// tight loop: touch the working set, think for half a second, tick the
// game clock.
func (b *builder) chess() []trace.Op {
	code := b.region(0x00000, 350, "code")
	data := b.region(0x40000, 300, "data")
	screen := b.region(0x80000, 328, "screen")
	b.fill(code, 0, 200)
	b.scatterAt(code, 200, 150, 100, 14)
	dataReal := b.scatter(data, 300, 60, 30)
	screenReal := b.scatter(screen, 328, 22, 10)

	b.resident = append(b.resident, addrRange(0, 0, 180)...) // code core
	b.makeResidentSubset(dataReal, 25)
	b.makeResidentSubset(screenReal, 10)

	touched := addrRange(0, 60, 90) // code beyond the WS
	touched = append(touched, b.makeSample(dataReal, 30)...)
	touched = append(touched, b.makeSample(screenReal, 16)...)
	b.touched = 60 + len(touched)

	ops := touchOps(b.shuffled(touched), 8*time.Millisecond, false)
	ops = append(ops,
		trace.WSLoop{Start: 0, Pages: 60, Iters: 520, Compute: 550 * time.Millisecond},
		trace.IOWait{D: 2 * time.Second},
	)
	return ops
}

// makeSample picks n addresses deterministically without residency
// side effects.
func (b *builder) makeSample(addrs []vm.Addr, n int) []vm.Addr {
	perm := b.rng.Perm(len(addrs))
	out := make([]vm.Addr, n)
	for i := 0; i < n; i++ {
		out[i] = addrs[perm[i]]
	}
	return out
}
