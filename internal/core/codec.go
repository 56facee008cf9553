package core

import (
	"fmt"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

// This file registers wire codecs for the migration protocol bodies,
// making the Core and RIMAS context messages genuinely byte-
// serializable: the destination reconstructs the AMap, the run table
// and the port rights (with their pending mail) from the frame alone.
// Pending mail nests as whole messages (wire.Encoder.Message), whose
// extras ride beside the outer frame. The reference program crosses by
// reference, like page images (wire.Encoder.Ref): it is the simulator's
// stand-in for instructions that live in the address space RIMAS
// moves, immutable and shared by every install of its workload, and
// BodyBytes counts none of it.

// Bodies are written through wire.Encoder, measured and then written
// straight into the frame, and read back through wire.Decoder, whose
// caller turns a truncated body into an error.

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

func decodeAMap(r *wire.Decoder) *vm.AMap {
	m := &vm.AMap{PageSize: int(r.I64())}
	if n := r.Count(8 + 8 + 1); n > 0 {
		m.Entries = make([]vm.AMapEntry, n)
		for i := range m.Entries {
			m.Entries[i] = vm.AMapEntry{
				Start:  vm.Addr(r.U64()),
				End:    vm.Addr(r.U64()),
				Access: vm.Accessibility(r.U8()),
			}
		}
	}
	m.Stats.Regions = int(r.I64())
	m.Stats.Runs = int(r.I64())
	m.Stats.MaterializedPages = int(r.I64())
	m.Stats.ValidatedPages = r.U64()
	return m
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
					if err := w.Message(pm); err != nil {
						return fmt.Errorf("pending mail: %w", err)
					}
				}
			}
			w.I64(int64(cb.MicrostateBytes))
			w.I64(int64(cb.KernelStackBytes))
			w.I64(int64(cb.PCBBytes))
			w.I64(int64(cb.PC))
			w.Ref(cb.Program)
			w.I64(int64(cb.Prefetch))
			w.I64(int64(cb.Attempt))
			return nil
		},
		Decode: func(r *wire.Decoder) (any, error) {
			cb := &CoreBody{ProcName: r.Str()}
			cb.AMap = decodeAMap(r)
			nRights := int(r.U32())
			for i := 0; i < nRights; i++ {
				rt := PortRight{ID: ipc.PortID(r.U64()), Name: r.Str()}
				nMail := int(r.U32())
				for j := 0; j < nMail; j++ {
					pm, err := r.Message()
					if err != nil {
						return nil, fmt.Errorf("pending mail: %w", err)
					}
					rt.Pending = append(rt.Pending, pm)
				}
				cb.Rights = append(cb.Rights, rt)
			}
			cb.MicrostateBytes = int(r.I64())
			cb.KernelStackBytes = int(r.I64())
			cb.PCBBytes = int(r.I64())
			cb.PC = int(r.I64())
			switch pr := r.Ref().(type) {
			case nil:
			case *trace.Program:
				cb.Program = pr
			default:
				return nil, fmt.Errorf("program rides as %T", pr)
			}
			cb.Prefetch = int(r.I64())
			cb.Attempt = int(r.I64())
			return cb, nil
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
		Decode: func(r *wire.Decoder) (any, error) {
			rb := &RIMASBody{ProcName: r.Str(), HoldAtDest: r.Bool(), PreCopied: r.Bool()}
			if n := r.Count(8 + 4 + 1); n > 0 {
				rb.Runs = make([]CollapsedRun, n)
				for i := range rb.Runs {
					rb.Runs[i] = CollapsedRun{VA: vm.Addr(r.U64()), Pages: r.U32(), Resident: r.Bool()}
				}
			}
			rb.Attempt = int(r.I64())
			return rb, nil
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
		Decode: func(r *wire.Decoder) (any, error) {
			ab := &AckBody{ProcName: r.Str()}
			ab.CoreArrived = time.Duration(r.I64())
			ab.RIMASArrived = time.Duration(r.I64())
			ab.InsertDone = time.Duration(r.I64())
			ab.Insert.Overall = time.Duration(r.I64())
			ab.Insert.ArrivedPages = int(r.I64())
			ab.Insert.IOURuns = int(r.I64())
			ab.Insert.ZeroRuns = int(r.I64())
			ab.Insert.ElidedPages = int(r.I64())
			ab.Insert.ResumedPages = int(r.I64())
			ab.Insert.RepairedPages = int(r.I64())
			ab.Err = r.Str()
			ab.Attempt = int(r.I64())
			return ab, nil
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
		Decode: func(r *wire.Decoder) (any, error) {
			return &PreCopyBody{ProcName: r.Str(), Round: int(r.I64())}, nil
		},
	})
	wire.RegisterBody(OpPreCopyAck, ackCodec)
}
