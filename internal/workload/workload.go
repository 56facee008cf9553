// Package workload reconstructs the seven representative processes of
// §4.1 as synthetic processes whose address-space composition matches
// Table 4-1 byte-for-byte, whose resident sets match Table 4-2, and
// whose reference programs reproduce each program's documented access
// pattern and touched fraction (Table 4-3): sequential whole-file scans
// for the Pasmac trials, low-locality random touches for Lisp, a small
// hot working set with heavy compute for Chess, and near-nothing for
// Minprog.
//
// These are the substitution for the original Perq binaries (see
// DESIGN.md): composition and residency are inputs taken from the
// paper's own characterization tables; everything else is measured.
package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/xrand"
)

// Kind identifies one representative process.
type Kind int

const (
	// Minprog is the "null trap" of migration studies: print, wait,
	// exit.
	Minprog Kind = iota
	// LispT is a Lisp system asked to evaluate T after migration.
	LispT
	// LispDel runs Dwyer's Delaunay triangulation in Lisp.
	LispDel
	// PMStart is the Pasmac macro processor migrated as the first
	// definition file is accessed.
	PMStart
	// PMMid is Pasmac migrated after all definition files are read.
	PMMid
	// PMEnd is Pasmac migrated near the end of its expansion.
	PMEnd
	// Chess is the long-lived, compute-bound chess program.
	Chess
)

// Kinds lists all representatives in the paper's table order.
func Kinds() []Kind {
	return []Kind{Minprog, LispT, LispDel, PMStart, PMMid, PMEnd, Chess}
}

// String names the representative as the paper does.
func (k Kind) String() string {
	switch k {
	case Minprog:
		return "Minprog"
	case LispT:
		return "Lisp-T"
	case LispDel:
		return "Lisp-Del"
	case PMStart:
		return "PM-Start"
	case PMMid:
		return "PM-Mid"
	case PMEnd:
		return "PM-End"
	case Chess:
		return "Chess"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Paper holds the published characterization for one representative,
// used both to build the workload and to verify the reproduction.
type Paper struct {
	TotalBytes    uint64 // Table 4-1 Total
	RealBytes     uint64 // Table 4-1 Real
	ResidentBytes uint64 // Table 4-2 RS Size
	TouchedIOU    int    // unique real pages touched remotely (from Table 4-3 IOU %)
}

// PaperNumbers returns the published figures for k.
func PaperNumbers(k Kind) Paper {
	switch k {
	case Minprog:
		return Paper{330_240, 142_336, 71_680, 24}
	case LispT:
		return Paper{4_228_129_280, 2_203_136, 190_464, 129}
	case LispDel:
		return Paper{4_228_129_280, 2_200_064, 190_464, 709}
	case PMStart:
		return Paper{950_784, 449_024, 132_096, 509}
	case PMMid:
		return Paper{912_896, 446_464, 190_976, 449}
	case PMEnd:
		return Paper{890_880, 492_032, 302_080, 258}
	case Chess:
		return Paper{500_736, 195_584, 110_080, 136}
	default:
		panic("workload: unknown kind")
	}
}

// Built is a constructed representative, ready to run and migrate.
//
// Proc.Program, RealAddrs and ResidentAddrs are shared with every other
// install of the same template: they are read-only.
type Built struct {
	Kind Kind
	Proc *machine.Process

	// RealAddrs holds the page address of every materialized page, in
	// address order.
	RealAddrs []vm.Addr
	// ResidentAddrs holds the pages resident at migration time.
	ResidentAddrs []vm.Addr
	// TouchedPost is the number of unique real pages the post-migration
	// phase references.
	TouchedPost int
}

const pg = 512 // the Accent page size; workload geometry is in pages

// Build installs representative k as a process on m. The process is
// left at rest; start it with m.Start and it will run to its
// MigratePoint.
//
// The layout depends only on k and the base seed, so it is drawn once
// (see templateOf) and every Build installs the same template: the real
// pages borrow their images from the shared fill rows instead of
// copying them into frames of m's pool.
func Build(m *machine.Machine, k Kind) (*Built, error) {
	if m.PageSize() != pg {
		return nil, fmt.Errorf("workload: %v requires %d-byte pages, machine has %d", k, pg, m.PageSize())
	}
	if k < Minprog || k > Chess {
		return nil, fmt.Errorf("workload: unknown kind %d", int(k))
	}
	built, err := templateOf(k).install(m, k.String(), 3)
	if err != nil {
		return nil, err
	}
	built.Kind = k
	if err := check(k, built.Proc.AS.Usage()); err != nil {
		return nil, err
	}
	return built, nil
}

// template is one process's layout: its regions, which pages are real
// and which resident, and its reference program. It holds no pages,
// frames or address space — every real page's image is the fill row
// its address names — so one template serves any number of machines
// concurrently, and nothing may modify it.
type template struct {
	regions  []region  // sorted by start
	real     []vm.Addr // address order
	resident []vm.Addr // MakeResident order
	program  *trace.Program
	touched  int
}

// templateKey names a representative's layout: the kind and the base
// seed its RNG was drawn under.
type templateKey struct {
	kind Kind
	seed uint64
}

// templates holds one lazily drawn template per key, each behind a
// sync.OnceValue so concurrent first Builds draw it once.
var templates sync.Map // templateKey → func() *template

// templateOf returns representative k's template for the current base
// seed, drawing it on first use.
func templateOf(k Kind) *template {
	key := templateKey{k, xrand.BaseSeed()}
	f, ok := templates.Load(key)
	if !ok {
		f, _ = templates.LoadOrStore(key, sync.OnceValue(func() *template { return newTemplate(k) }))
	}
	return f.(func() *template)()
}

// newTemplate draws representative k's layout and program.
func newTemplate(k Kind) *template {
	b := &builder{rng: xrand.New(0x5eed0000 + uint64(k))}
	var post []trace.Op
	switch k {
	case Minprog:
		post = b.minprog()
	case LispT:
		post = b.lisp(4303, 300, lispTTrace)
	case LispDel:
		post = b.lisp(4297, 350, lispDelTrace)
	case PMStart, PMMid, PMEnd:
		post = b.pasmac(k)
	case Chess:
		post = b.chess()
	}
	ops := []trace.Op{trace.Compute{D: 10 * time.Millisecond}, trace.MigratePoint{}}
	return b.template(append(ops, post...))
}

// install recreates t as process name on m: it validates the regions in
// address order, installs every real page by reference to its fill row
// with OnDisk set, shares the program and address lists, and makes the
// resident set resident in t's order — per machine, since residency can
// evict. It refuses, before creating the process, a resident set larger
// than m's physical memory: making it resident would evict part of it.
func (t *template) install(m *machine.Machine, name string, nports int) (*Built, error) {
	if n, frames := len(t.resident), m.Phys.Capacity(); n > frames {
		return nil, fmt.Errorf("workload %s: resident set of %d pages does not fit in %d physical frames", name, n, frames)
	}
	pr, err := m.NewProcess(name, nports)
	if err != nil {
		return nil, err
	}
	for _, r := range t.regions {
		if _, err := pr.AS.Validate(r.start, r.pages*pg, r.name); err != nil {
			return nil, err
		}
	}
	regs, ri := pr.AS.Regions(), 0
	for _, a := range t.real {
		for regs[ri].End <= a {
			ri++
		}
		r := regs[ri]
		i := uint64(a-r.Start) / pg
		r.Seg.Borrow(i, fillRow(byte(uint64(r.Start)+i*31))).State.OnDisk = true
	}
	pr.Program = t.program
	if err := m.MakeResident(pr, t.resident); err != nil {
		return nil, err
	}
	return &Built{
		Proc:          pr,
		RealAddrs:     t.real,
		ResidentAddrs: t.resident,
		TouchedPost:   t.touched,
	}, nil
}

// check verifies an installed representative against the published
// numbers: every number of its Table 4-1 row (Real, RealZ = Total -
// Real, Total) and its Table 4-2 resident set.
func check(k Kind, u vm.Usage) error {
	paper := PaperNumbers(k)
	if u.Total != paper.TotalBytes {
		return fmt.Errorf("workload %v: Total = %d, paper %d", k, u.Total, paper.TotalBytes)
	}
	if u.Real != paper.RealBytes {
		return fmt.Errorf("workload %v: Real = %d, paper %d", k, u.Real, paper.RealBytes)
	}
	if u.RealZero != paper.TotalBytes-paper.RealBytes {
		return fmt.Errorf("workload %v: RealZero = %d, paper %d", k, u.RealZero, paper.TotalBytes-paper.RealBytes)
	}
	if u.Resident != paper.ResidentBytes {
		return fmt.Errorf("workload %v: Resident = %d, paper %d", k, u.Resident, paper.ResidentBytes)
	}
	return nil
}

// region is one validated range of a template.
type region struct {
	start vm.Addr
	pages uint64
	name  string
}

// builder records one process's layout as its builders draw it.
type builder struct {
	rng      *xrand.RNG
	regions  []region
	real     []vm.Addr
	resident []vm.Addr
	touched  int
}

// template freezes the recorded layout with its program.
func (b *builder) template(ops []trace.Op) *template {
	sort.Slice(b.real, func(i, j int) bool { return b.real[i] < b.real[j] })
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].start < b.regions[j].start })
	return &template{
		regions:  b.regions,
		real:     b.real,
		resident: b.resident,
		program:  &trace.Program{Ops: ops},
		touched:  b.touched,
	}
}

// region records pages of address space at start to be validated.
func (b *builder) region(start vm.Addr, pages uint64, name string) region {
	r := region{start: start, pages: pages, name: name}
	b.regions = append(b.regions, r)
	return r
}

// fillRows holds every distinct page image a real page can have. The
// content formula byte(start + i*31 + j*7), for page i of the region
// at start, depends on (start, i) only through its low byte, so there
// are exactly 256 page images.
// Installs borrow the rows in place (vm.Segment.Borrow), so they are
// immutable once built.
var (
	fillRows     [256][pg]byte
	fillRowsOnce sync.Once
)

func fillRow(s byte) []byte {
	fillRowsOnce.Do(func() {
		for s := 0; s < 256; s++ {
			for j := 0; j < pg; j++ {
				fillRows[s][j] = byte(s + j*7)
			}
		}
	})
	return fillRows[s][:]
}

// fill records [from, to) page indices of the region as real,
// disk-backed pages.
func (b *builder) fill(reg region, from, to uint64) {
	for i := from; i < to; i++ {
		b.real = append(b.real, reg.start+vm.Addr(i*pg))
	}
}

// scatter records exactly `pages` real pages within the first `window`
// pages of reg, in approximately `runs` contiguous runs, and returns the
// addresses in address order.
func (b *builder) scatter(reg region, window, pages, runs uint64) []vm.Addr {
	return b.scatterAt(reg, 0, window, pages, runs)
}

// scatterAt is scatter starting at page index `from` within the region.
func (b *builder) scatterAt(reg region, from, window, pages, runs uint64) []vm.Addr {
	if runs < 1 {
		runs = 1
	}
	if runs > pages {
		runs = pages
	}
	if window < pages {
		panic(fmt.Sprintf("workload: scatter window %d < pages %d", window, pages))
	}
	// Run lengths: distribute pages across runs, ±50% jitter.
	lens := make([]uint64, runs)
	left := pages
	for i := range lens {
		avg := left / uint64(len(lens)-i)
		l := avg/2 + uint64(b.rng.Intn(int(avg)+1))
		if l < 1 {
			l = 1
		}
		if i == len(lens)-1 || l > left-uint64(len(lens)-i-1) {
			l = left - uint64(len(lens)-i-1)
		}
		lens[i] = l
		left -= l
	}
	// Gaps: distribute the slack between runs (gap >= 1 to keep runs
	// distinct).
	slack := window - pages
	gaps := make([]uint64, runs)
	for i := range gaps {
		if slack == 0 {
			break
		}
		g := uint64(b.rng.Intn(int(slack/(runs-uint64(i))*2 + 1)))
		if g > slack {
			g = slack
		}
		gaps[i] = g
		slack -= g
	}
	start := len(b.real)
	cursor := from
	for i := uint64(0); i < runs; i++ {
		cursor += gaps[i]
		b.fill(reg, cursor, cursor+lens[i])
		cursor += lens[i]
		if i > 0 && gaps[i] == 0 {
			// Adjacent runs merge; harmless, run count is approximate.
			continue
		}
	}
	return b.real[start:]
}

// makeResidentSubset marks n of the given addresses resident, sampled
// deterministically, and returns them.
func (b *builder) makeResidentSubset(addrs []vm.Addr, n int) []vm.Addr {
	if n > len(addrs) {
		panic(fmt.Sprintf("workload: resident %d > candidates %d", n, len(addrs)))
	}
	perm := b.rng.Perm(len(addrs))
	picked := make([]vm.Addr, n)
	for i := 0; i < n; i++ {
		picked[i] = addrs[perm[i]]
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	b.resident = append(b.resident, picked...)
	return picked
}

// touchOps turns page addresses into Touch ops with compute sprinkled
// between them.
func touchOps(addrs []vm.Addr, perTouch time.Duration, write bool) []trace.Op {
	ops := make([]trace.Op, 0, 2*len(addrs))
	for _, a := range addrs {
		if perTouch > 0 {
			ops = append(ops, trace.Compute{D: perTouch})
		}
		ops = append(ops, trace.Touch{Addr: a, Write: write})
	}
	return ops
}

// shuffled returns a deterministic shuffle of addrs.
func (b *builder) shuffled(addrs []vm.Addr) []vm.Addr {
	out := append([]vm.Addr(nil), addrs...)
	b.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
