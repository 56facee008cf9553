package workload

import (
	"fmt"
	"time"

	"accentmig/internal/machine"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/xrand"
)

// AccessPattern selects how a synthetic process touches its memory
// after migration.
type AccessPattern int

const (
	// Sequential scans the touched range in address order (the Pasmac
	// shape; prefetch-friendly).
	Sequential AccessPattern = iota
	// Random touches distinct pages in a shuffled order (the Lisp
	// shape; prefetch-hostile).
	Random
	// WorkingSet loops over a small hot set (the Chess shape).
	WorkingSet
)

// String names the pattern.
func (a AccessPattern) String() string {
	switch a {
	case Sequential:
		return "Sequential"
	case Random:
		return "Random"
	case WorkingSet:
		return "WorkingSet"
	default:
		return fmt.Sprintf("AccessPattern(%d)", int(a))
	}
}

// SyntheticSpec parameterizes a custom workload, letting library users
// model their own program classes the way §4.1 models the paper's.
// Zero values select sane defaults.
type SyntheticSpec struct {
	Name string
	// TotalPages of validated address space (default 2× RealPages).
	TotalPages int
	// RealPages of materialized, disk-backed data (default 256).
	RealPages int
	// RealRuns scatters the real pages into this many runs (default 1:
	// contiguous).
	RealRuns int
	// ResidentPages resident at migration time (default RealPages/4).
	ResidentPages int
	// TouchedPages the post-migration phase references (default
	// RealPages/4).
	TouchedPages int
	// Pattern of the post-migration touches.
	Pattern AccessPattern
	// PerTouch compute between touches (default 10 ms).
	PerTouch time.Duration
	// ExtraCompute after the touches (default 1 s).
	ExtraCompute time.Duration
	// Writes makes the touches writes (dirtying pages).
	Writes bool
	// Seed for the deterministic layout/pattern randomness.
	Seed uint64
}

func (sp SyntheticSpec) withDefaults() SyntheticSpec {
	if sp.Name == "" {
		sp.Name = "synthetic"
	}
	if sp.RealPages == 0 {
		sp.RealPages = 256
	}
	if sp.TotalPages == 0 {
		sp.TotalPages = 2 * sp.RealPages
	}
	if sp.RealRuns == 0 {
		sp.RealRuns = 1
	}
	if sp.ResidentPages == 0 {
		sp.ResidentPages = sp.RealPages / 4
	}
	if sp.TouchedPages == 0 {
		sp.TouchedPages = sp.RealPages / 4
	}
	if sp.PerTouch == 0 {
		sp.PerTouch = 10 * time.Millisecond
	}
	if sp.ExtraCompute == 0 {
		sp.ExtraCompute = time.Second
	}
	return sp
}

func (sp SyntheticSpec) validate() error {
	if sp.RealPages > sp.TotalPages {
		return fmt.Errorf("workload: synthetic %q: RealPages %d > TotalPages %d", sp.Name, sp.RealPages, sp.TotalPages)
	}
	if sp.ResidentPages > sp.RealPages {
		return fmt.Errorf("workload: synthetic %q: ResidentPages %d > RealPages %d", sp.Name, sp.ResidentPages, sp.RealPages)
	}
	if sp.TouchedPages > sp.RealPages {
		return fmt.Errorf("workload: synthetic %q: TouchedPages %d > RealPages %d", sp.Name, sp.TouchedPages, sp.RealPages)
	}
	if sp.TouchedPages < 1 || sp.RealPages < 1 {
		return fmt.Errorf("workload: synthetic %q: needs at least one real and one touched page", sp.Name)
	}
	return nil
}

// BuildSynthetic constructs a custom process on m from the spec. Like
// the representatives, it stops at a MigratePoint before its touch
// phase, so it is ready for any migration strategy. Its template is
// drawn afresh on every call and installed the way Build installs one.
func BuildSynthetic(m *machine.Machine, spec SyntheticSpec) (*Built, error) {
	sp := spec.withDefaults()
	if err := sp.validate(); err != nil {
		return nil, err
	}
	if m.PageSize() != pg {
		return nil, fmt.Errorf("workload: synthetic %q requires %d-byte pages", sp.Name, pg)
	}
	b := &builder{rng: xrand.New(sp.Seed ^ 0x51f7e71c)}

	reg := b.region(0, uint64(sp.TotalPages), sp.Name+".data")
	real := b.scatter(reg, uint64(sp.TotalPages), uint64(sp.RealPages), uint64(sp.RealRuns))
	b.makeResidentSubset(real, sp.ResidentPages)

	var touched []vm.Addr
	switch sp.Pattern {
	case Sequential:
		touched = append(touched, real[:sp.TouchedPages]...)
	case Random:
		touched = b.makeSample(real, sp.TouchedPages)
	case WorkingSet:
		touched = append(touched, real[:sp.TouchedPages]...)
	}
	b.touched = len(touched)

	ops := []trace.Op{trace.MigratePoint{}}
	switch sp.Pattern {
	case WorkingSet:
		iters := 1 + int(sp.ExtraCompute/(250*time.Millisecond))
		ops = append(ops, touchOps(touched, sp.PerTouch, sp.Writes)...)
		ops = append(ops, trace.WSLoop{
			Start:   touched[0],
			Pages:   min(sp.TouchedPages, 32),
			Iters:   iters,
			Compute: 250 * time.Millisecond,
			Write:   sp.Writes,
		})
	default:
		if sp.Pattern == Random {
			touched = b.shuffled(touched)
		}
		ops = append(ops, touchOps(touched, sp.PerTouch, sp.Writes)...)
		ops = append(ops, trace.Compute{D: sp.ExtraCompute})
	}

	built, err := b.template(ops).install(m, sp.Name, 2)
	if err != nil {
		return nil, err
	}
	built.Kind = Kind(-1)
	return built, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
