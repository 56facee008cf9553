package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

// This file registers wire codecs for the migration protocol bodies,
// making the Core and RIMAS context messages genuinely byte-
// serializable: the destination reconstructs the AMap, the run table,
// the port rights (with their pending mail), and the reference program
// from the frame alone. Pending-mail bodies without codecs of their
// own ride in the frame's extras, in order.

// Bodies are written through wire.Encoder, measured and then written
// straight into the frame; dec is the matching reader.
type dec struct {
	b   []byte
	off int
}

func (r *dec) need(n int) ([]byte, error) {
	if r.off+n > len(r.b) {
		return nil, fmt.Errorf("core: truncated body")
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}
func (r *dec) u8() uint8 {
	v, err := r.need(1)
	if err != nil {
		panic(err)
	}
	return v[0]
}
func (r *dec) u32() uint32 {
	v, err := r.need(4)
	if err != nil {
		panic(err)
	}
	return binary.BigEndian.Uint32(v)
}
func (r *dec) u64() uint64 {
	v, err := r.need(8)
	if err != nil {
		panic(err)
	}
	return binary.BigEndian.Uint64(v)
}

// count reads an item count and checks it against the bytes left, at
// least size bytes an item, so a slice made from it is sized once and
// never larger than the body could fill.
func (r *dec) count(size int) int {
	n := int(r.u32())
	if n > (len(r.b)-r.off)/size {
		panic(fmt.Errorf("core: truncated body"))
	}
	return n
}
func (r *dec) i64() int64         { return int64(r.u64()) }
func (r *dec) dur() time.Duration { return time.Duration(r.i64()) }
func (r *dec) boolv() bool        { return r.u8() != 0 }
func (r *dec) bytes() []byte {
	n := int(r.u32())
	v, err := r.need(n)
	if err != nil {
		panic(err)
	}
	out := make([]byte, n)
	copy(out, v)
	return out
}
func (r *dec) str() string { return string(r.bytes()) }

// guard converts the dec panics into errors at codec boundaries.
func guard(fn func() (any, error)) (v any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				v, err = nil, e
				return
			}
			panic(rec)
		}
	}()
	return fn()
}

func encodeAMap(w *wire.Encoder, m *vm.AMap) {
	w.I64(int64(m.PageSize))
	w.U32(uint32(len(m.Entries)))
	for _, e := range m.Entries {
		w.U64(uint64(e.Start))
		w.U64(uint64(e.End))
		w.U8(uint8(e.Access))
	}
	w.I64(int64(m.Stats.Regions))
	w.I64(int64(m.Stats.Runs))
	w.I64(int64(m.Stats.MaterializedPages))
	w.U64(m.Stats.ValidatedPages)
}

func decodeAMap(r *dec) *vm.AMap {
	m := &vm.AMap{PageSize: int(r.i64())}
	if n := r.count(8 + 8 + 1); n > 0 {
		m.Entries = make([]vm.AMapEntry, n)
		for i := range m.Entries {
			m.Entries[i] = vm.AMapEntry{
				Start:  vm.Addr(r.u64()),
				End:    vm.Addr(r.u64()),
				Access: vm.Accessibility(r.u8()),
			}
		}
	}
	m.Stats.Regions = int(r.i64())
	m.Stats.Runs = int(r.i64())
	m.Stats.MaterializedPages = int(r.i64())
	m.Stats.ValidatedPages = r.u64()
	return m
}

// trace op tags for the program codec.
const (
	opTagCompute = iota
	opTagIOWait
	opTagTouch
	opTagSeqScan
	opTagRandTouch
	opTagWSLoop
	opTagMigrate
)

func encodeProgram(w *wire.Encoder, pr *trace.Program) error {
	if pr == nil {
		w.U32(0)
		return nil
	}
	w.U32(uint32(len(pr.Ops)))
	for _, op := range pr.Ops {
		switch o := op.(type) {
		case trace.Compute:
			w.U8(opTagCompute)
			w.I64(int64(o.D))
		case trace.IOWait:
			w.U8(opTagIOWait)
			w.I64(int64(o.D))
		case trace.Touch:
			w.U8(opTagTouch)
			w.U64(uint64(o.Addr))
			w.Bool(o.Write)
		case trace.SeqScan:
			w.U8(opTagSeqScan)
			w.U64(uint64(o.Start))
			w.U64(o.Bytes)
			w.U64(o.Stride)
			w.Bool(o.Write)
			w.I64(int64(o.PerTouch))
		case trace.RandTouch:
			w.U8(opTagRandTouch)
			w.U64(uint64(o.Start))
			w.U64(o.Bytes)
			w.I64(int64(o.Count))
			w.U64(o.Seed)
			w.Bool(o.Write)
			w.I64(int64(o.PerTouch))
		case trace.WSLoop:
			w.U8(opTagWSLoop)
			w.U64(uint64(o.Start))
			w.I64(int64(o.Pages))
			w.I64(int64(o.Iters))
			w.I64(int64(o.Compute))
			w.Bool(o.Write)
		case trace.MigratePoint:
			w.U8(opTagMigrate)
		default:
			return fmt.Errorf("core: cannot encode trace op %T", op)
		}
	}
	return nil
}

func decodeProgram(r *dec) (*trace.Program, error) {
	n := int(r.u32())
	if n == 0 {
		return nil, nil
	}
	pr := &trace.Program{}
	for i := 0; i < n; i++ {
		switch tag := r.u8(); tag {
		case opTagCompute:
			pr.Ops = append(pr.Ops, trace.Compute{D: r.dur()})
		case opTagIOWait:
			pr.Ops = append(pr.Ops, trace.IOWait{D: r.dur()})
		case opTagTouch:
			pr.Ops = append(pr.Ops, trace.Touch{Addr: vm.Addr(r.u64()), Write: r.boolv()})
		case opTagSeqScan:
			pr.Ops = append(pr.Ops, trace.SeqScan{
				Start: vm.Addr(r.u64()), Bytes: r.u64(), Stride: r.u64(),
				Write: r.boolv(), PerTouch: r.dur(),
			})
		case opTagRandTouch:
			pr.Ops = append(pr.Ops, trace.RandTouch{
				Start: vm.Addr(r.u64()), Bytes: r.u64(), Count: int(r.i64()),
				Seed: r.u64(), Write: r.boolv(), PerTouch: r.dur(),
			})
		case opTagWSLoop:
			pr.Ops = append(pr.Ops, trace.WSLoop{
				Start: vm.Addr(r.u64()), Pages: int(r.i64()), Iters: int(r.i64()),
				Compute: r.dur(), Write: r.boolv(),
			})
		case opTagMigrate:
			pr.Ops = append(pr.Ops, trace.MigratePoint{})
		default:
			return nil, fmt.Errorf("core: unknown trace op tag %d", tag)
		}
	}
	return pr, nil
}

func init() {
	wire.RegisterBody(OpCore, wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			cb, ok := v.(*CoreBody)
			if !ok {
				return fmt.Errorf("want *CoreBody, got %T", v)
			}
			w.Str(cb.ProcName)
			encodeAMap(w, cb.AMap)
			w.U32(uint32(len(cb.Rights)))
			for _, rt := range cb.Rights {
				w.U64(uint64(rt.ID))
				w.Str(rt.Name)
				w.U32(uint32(len(rt.Pending)))
				for _, pm := range rt.Pending {
					frame, ex, err := wire.EncodeMessage(pm)
					if err != nil {
						return fmt.Errorf("pending mail: %w", err)
					}
					w.Bytes(frame)
					w.U32(uint32(len(ex)))
					w.Extra(ex...)
				}
			}
			w.I64(int64(cb.MicrostateBytes))
			w.I64(int64(cb.KernelStackBytes))
			w.I64(int64(cb.PCBBytes))
			w.I64(int64(cb.PC))
			if err := encodeProgram(w, cb.Program); err != nil {
				return err
			}
			w.I64(int64(cb.Prefetch))
			w.I64(int64(cb.Attempt))
			return nil
		},
		Decode: func(b []byte, extras []any) (any, error) {
			return guard(func() (any, error) {
				r := &dec{b: b}
				cb := &CoreBody{ProcName: r.str()}
				cb.AMap = decodeAMap(r)
				nRights := int(r.u32())
				for i := 0; i < nRights; i++ {
					rt := PortRight{ID: ipc.PortID(r.u64()), Name: r.str()}
					nMail := int(r.u32())
					for j := 0; j < nMail; j++ {
						frame := r.bytes()
						nex := int(r.u32())
						if nex > len(extras) {
							return nil, fmt.Errorf("core: pending mail wants %d extras, have %d", nex, len(extras))
						}
						ex := extras[:nex]
						extras = extras[nex:]
						pm, err := wire.DecodeMessage(frame, ex)
						if err != nil {
							return nil, fmt.Errorf("pending mail: %w", err)
						}
						rt.Pending = append(rt.Pending, pm)
					}
					cb.Rights = append(cb.Rights, rt)
				}
				cb.MicrostateBytes = int(r.i64())
				cb.KernelStackBytes = int(r.i64())
				cb.PCBBytes = int(r.i64())
				cb.PC = int(r.i64())
				var err error
				cb.Program, err = decodeProgram(r)
				if err != nil {
					return nil, err
				}
				cb.Prefetch = int(r.i64())
				cb.Attempt = int(r.i64())
				return cb, nil
			})
		},
	})

	wire.RegisterBody(OpRIMAS, wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			rb, ok := v.(*RIMASBody)
			if !ok {
				return fmt.Errorf("want *RIMASBody, got %T", v)
			}
			w.Str(rb.ProcName)
			w.Bool(rb.HoldAtDest)
			w.Bool(rb.PreCopied)
			w.U32(uint32(len(rb.Runs)))
			for _, run := range rb.Runs {
				w.U64(uint64(run.VA))
				w.U32(run.Pages)
				w.Bool(run.Resident)
			}
			w.I64(int64(rb.Attempt))
			return nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			return guard(func() (any, error) {
				r := &dec{b: b}
				rb := &RIMASBody{ProcName: r.str(), HoldAtDest: r.boolv(), PreCopied: r.boolv()}
				if n := r.count(8 + 4 + 1); n > 0 {
					rb.Runs = make([]CollapsedRun, n)
					for i := range rb.Runs {
						rb.Runs[i] = CollapsedRun{VA: vm.Addr(r.u64()), Pages: r.u32(), Resident: r.boolv()}
					}
				}
				rb.Attempt = int(r.i64())
				return rb, nil
			})
		},
	})

	ackCodec := wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			ab, ok := v.(*AckBody)
			if !ok {
				return fmt.Errorf("want *AckBody, got %T", v)
			}
			w.Str(ab.ProcName)
			w.I64(int64(ab.CoreArrived))
			w.I64(int64(ab.RIMASArrived))
			w.I64(int64(ab.InsertDone))
			w.I64(int64(ab.Insert.Overall))
			w.I64(int64(ab.Insert.ArrivedPages))
			w.I64(int64(ab.Insert.IOURuns))
			w.I64(int64(ab.Insert.ZeroRuns))
			w.I64(int64(ab.Insert.ElidedPages))
			w.I64(int64(ab.Insert.ResumedPages))
			w.I64(int64(ab.Insert.RepairedPages))
			w.Str(ab.Err)
			w.I64(int64(ab.Attempt))
			return nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			return guard(func() (any, error) {
				r := &dec{b: b}
				ab := &AckBody{ProcName: r.str()}
				ab.CoreArrived = r.dur()
				ab.RIMASArrived = r.dur()
				ab.InsertDone = r.dur()
				ab.Insert.Overall = r.dur()
				ab.Insert.ArrivedPages = int(r.i64())
				ab.Insert.IOURuns = int(r.i64())
				ab.Insert.ZeroRuns = int(r.i64())
				ab.Insert.ElidedPages = int(r.i64())
				ab.Insert.ResumedPages = int(r.i64())
				ab.Insert.RepairedPages = int(r.i64())
				ab.Err = r.str()
				ab.Attempt = int(r.i64())
				return ab, nil
			})
		},
	}
	wire.RegisterBody(OpMigrateAck, ackCodec)
	wire.RegisterBody(OpCoreAck, ackCodec)

	wire.RegisterBody(OpPreCopy, wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			pb, ok := v.(*PreCopyBody)
			if !ok {
				return fmt.Errorf("want *PreCopyBody, got %T", v)
			}
			w.Str(pb.ProcName)
			w.I64(int64(pb.Round))
			return nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			return guard(func() (any, error) {
				r := &dec{b: b}
				return &PreCopyBody{ProcName: r.str(), Round: int(r.i64())}, nil
			})
		},
	})
	wire.RegisterBody(OpPreCopyAck, ackCodec)
}
