package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// CPU attribution for the traced run. A runtime/pprof CPU profile is
// decoded just far enough to recover each sample's stack, and every
// sample is charged to one layer by layerOf.

// gcRoots are the runtime entry points of GC work that runs on its own
// goroutine. GC assists run inside an allocating caller and are charged
// to that caller instead.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.runfinq":        true,
	"runtime._GC":            true,
}

const internalPrefix = "accentmig/internal/"

// layerOf charges one sample to a layer. stack holds function names,
// innermost first. The innermost project frame decides, so runtime
// frames (allocation, map access, GC assists) count toward the layer
// that called them; the benchmark's own frames count as other. A stack
// with no project frame is GC work if it grew from a GC root and
// scheduler work if it is runtime only. Anything else (the profiler's
// own writer, stdlib goroutines) returns "" and stays unattributed.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			// An internal/ package without a bucket of its own is other.
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if slices.Contains(layers, pkg) {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	runtimeOnly := len(stack) > 0
	for _, fn := range stack {
		if gcRoots[fn] {
			return "gc"
		}
		if !isRuntime(fn) {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "sched"
	}
	return ""
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") ||
		strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// attribution is a profile's CPU time per layer.
type attribution struct {
	nanos map[string]int64
	total int64 // every sample, attributed or not
}

// attribute charges every sample of a gzipped CPU profile to its layer.
func attribute(profile []byte) (attribution, error) {
	a := attribution{nanos: map[string]int64{}}
	err := profileSamples(profile, func(stack []string, cpu int64) {
		a.total += cpu
		if l := layerOf(stack); l != "" {
			a.nanos[l] += cpu
		}
	})
	return a, err
}

// profileSamples decodes a gzipped runtime/pprof CPU profile (the
// profile.proto format) and calls fn with each sample's stack, innermost
// function first, and its CPU nanoseconds: the sample's last value.
func profileSamples(profile []byte, fn func(stack []string, cpu int64)) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}

	var samples [][]byte
	locLines := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}

	var stack []string
	for _, s := range samples {
		var locs []uint64
		var vals []uint64
		err := fields(s, func(num int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = appendRepeated(locs, v, b)
			case 2:
				vals, err = appendRepeated(vals, v, b)
			}
			return err
		})
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			continue
		}
		stack = stack[:0]
		for _, l := range locs {
			for _, f := range locLines[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		fn(stack, int64(vals[len(vals)-1]))
	}
	return nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none that matter here.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated adds a repeated varint field's values, which arrive
// either one per field (data nil) or packed into one field.
func appendRepeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}
