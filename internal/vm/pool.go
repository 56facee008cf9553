package vm

// FramePool recycles page-size data frames so the steady-state memory
// data plane stops paying one heap allocation (and later one GC scan)
// per 512-byte page touched. Frames are carved out of large contiguous
// arenas — arenaFrames pages per allocation — so even cold-start
// materialization of a big space costs len/arenaFrames allocator trips
// rather than one per page.
//
// The pool is deliberately not concurrency-safe: it is per-testbed
// state (one pool per simulated machine), and parallel experiment
// trials build fully disjoint testbeds. Keeping it lock-free keeps the
// fault hot path at zero synchronization cost.
//
// Frames returned by Get have unspecified contents; Materialize and
// breakCOW overwrite every byte (zeroing any tail past the installed
// data), so recycling never leaks stale page contents into the
// simulation.
type FramePool struct {
	pageSize int
	free     [][]byte
	stats    FramePoolStats
}

// arenaFrames is the number of page frames carved from one arena
// allocation (128 KB at the Accent page size, the data of one 256-page
// window of a segment's page table).
const arenaFrames = 256

// FramePoolStats counts pool traffic for the performance report.
type FramePoolStats struct {
	Gets   uint64 // frames handed out
	Puts   uint64 // frames recycled
	Arenas uint64 // contiguous arenas allocated
	// Disowned counts frames that left with an excised process's
	// context (see Segment.DisownFrames); they count as returned but
	// are never reused.
	Disowned uint64
}

// NewFramePool creates a pool serving frames of the given page size.
func NewFramePool(pageSize int) *FramePool {
	if pageSize <= 0 {
		panic("vm: frame pool page size must be positive")
	}
	return &FramePool{pageSize: pageSize}
}

// PageSize reports the frame size the pool serves.
func (p *FramePool) PageSize() int { return p.pageSize }

// Get returns a page-size frame, recycling a freed one when available
// and otherwise carving a fresh arena. Contents are unspecified.
func (p *FramePool) Get() []byte {
	p.stats.Gets++
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return f
	}
	arena := make([]byte, arenaFrames*p.pageSize)
	p.stats.Arenas++
	// Full-slice expressions cap every frame at its own extent so an
	// append through one frame can never bleed into its neighbor.
	for off := p.pageSize; off < len(arena); off += p.pageSize {
		p.free = append(p.free, arena[off:off+p.pageSize:off+p.pageSize])
	}
	return arena[:p.pageSize:p.pageSize]
}

// Put recycles a frame. Buffers smaller than the pool's page size are
// dropped (they were never pool frames).
func (p *FramePool) Put(f []byte) {
	if cap(f) < p.pageSize {
		return
	}
	p.stats.Puts++
	p.free = append(p.free, f[:p.pageSize])
}

// disown counts a frame as returned without recycling it: its bytes
// now belong to whoever holds them. Like Put, it ignores buffers
// smaller than a page.
func (p *FramePool) disown(f []byte) {
	if cap(f) >= p.pageSize {
		p.stats.Disowned++
	}
}

// FreeFrames reports how many recycled frames are ready for reuse.
func (p *FramePool) FreeFrames() int { return len(p.free) }

// InUse reports how many frames live pages hold: frames handed out,
// less those recycled or disowned. The chaos campaign's
// frame-leak invariant compares each machine's InUse at the end of a
// trial with the fault-free golden trial's.
func (p *FramePool) InUse() uint64 {
	return p.stats.Gets - p.stats.Puts - p.stats.Disowned
}

// Stats returns a snapshot of pool traffic.
func (p *FramePool) Stats() FramePoolStats { return p.stats }
