// Package vm models the Accent virtual memory system at page
// granularity: sparse address spaces of up to 4 gigabytes, segments
// (real and imaginary) holding actual page data, borrowed page images
// copied on first write, lazy zero-fill, physical memory with LRU replacement, and the
// Accessibility Map (AMap) machinery that migration depends on.
//
// The package is purely mechanical: it classifies addresses and moves
// page state around. Fault *costs* and fault *handling policy* live in
// the pager and core packages.
package vm

import "fmt"

// DefaultPageSize is the Accent page size: 512 bytes.
const DefaultPageSize = 512

// MaxSpace is the size of a full Accent address space: 4 gigabytes.
const MaxSpace uint64 = 4 << 30

// Addr is a virtual address within a process address space.
type Addr uint64

// Accessibility is the memory "distance" of an address, as defined for
// AMaps in the paper (§2.3). The order reflects increasing distance.
type Accessibility int

const (
	// RealZeroMem: validated but never touched; conceptually zero.
	// Immediately accessible via an inexpensive FillZero fault.
	RealZeroMem Accessibility = iota
	// RealMem: data present in physical memory or on the local disk.
	// Moderately accessible.
	RealMem
	// ImagMem: mapped to an imaginary segment; a touch generates an
	// imaginary fault serviced through IPC. Distantly accessible.
	ImagMem
	// BadMem: not validated; touching it is an addressing error.
	// Infinitely distant.
	BadMem
)

// Config parameterizes an address space. The zero value selects the
// Accent defaults.
type Config struct {
	// PageSize in bytes; must be a power of two. Defaults to 512.
	PageSize int
	// Pool, when set, supplies recycled page frames to every segment
	// the space creates via Validate. Its page size must match.
	Pool *FramePool
}

func (c Config) pageSize() int {
	if c.PageSize == 0 {
		return DefaultPageSize
	}
	return c.PageSize
}

func (c Config) validate() error {
	ps := c.pageSize()
	if ps < 8 || ps&(ps-1) != 0 {
		return fmt.Errorf("vm: page size %d is not a power of two >= 8", ps)
	}
	return nil
}
