package core

import (
	"testing"
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/trace"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

func TestCoreBodyRoundTrip(t *testing.T) {
	amap := &vm.AMap{
		PageSize: 512,
		Entries: []vm.AMapEntry{
			{Start: 0, End: 4 * 512, Access: vm.RealMem},
			{Start: 4 * 512, End: 1 << 30, Access: vm.RealZeroMem},
			{Start: 1 << 30, End: 1<<30 + 8*512, Access: vm.ImagMem},
		},
		Stats: vm.AMapStats{Regions: 2, Runs: 3, MaterializedPages: 4, ValidatedPages: 1 << 21},
	}
	prog := &trace.Program{Ops: []trace.Op{trace.Compute{D: 100 * time.Millisecond}, trace.MigratePoint{}}}
	mail := &ipc.Message{Op: 0x9999, To: 3, Body: "user payload", BodyBytes: 12}
	cb := &CoreBody{
		ProcName:         "roundtrip",
		AMap:             amap,
		Rights:           []PortRight{{ID: 3, Name: "p0", Pending: []*ipc.Message{mail}}, {ID: 4, Name: "p1"}},
		MicrostateBytes:  512,
		KernelStackBytes: 256,
		PCBBytes:         256,
		PC:               5,
		Program:          prog,
		Prefetch:         3,
	}
	out, err := wire.Transfer(&ipc.Message{Op: OpCore, Body: cb, BodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.Body.(*CoreBody)
	if !ok {
		t.Fatalf("body type %T", out.Body)
	}
	if got.ProcName != cb.ProcName || got.PC != 5 || got.Prefetch != 3 ||
		got.MicrostateBytes != 512 || got.KernelStackBytes != 256 || got.PCBBytes != 256 {
		t.Errorf("scalars lost: %+v", got)
	}
	if len(got.AMap.Entries) != 3 || got.AMap.Entries[2] != amap.Entries[2] {
		t.Errorf("AMap lost: %+v", got.AMap)
	}
	if got.AMap.Stats != amap.Stats {
		t.Errorf("AMap stats lost: %+v", got.AMap.Stats)
	}
	if len(got.Rights) != 2 || got.Rights[0].ID != 3 || got.Rights[1].Name != "p1" {
		t.Errorf("rights lost: %+v", got.Rights)
	}
	if len(got.Rights[0].Pending) != 1 {
		t.Fatalf("pending mail lost")
	}
	pm := got.Rights[0].Pending[0]
	if pm.Op != 0x9999 || pm.Body.(string) != "user payload" {
		t.Errorf("pending mail corrupted: %+v", pm)
	}
	if got.Program != prog {
		t.Errorf("program %p, want the sender's %p: it crosses by reference", got.Program, prog)
	}

	// A reference of another type in the program's place is refused.
	frame, extras, err := wire.EncodeMessage(&ipc.Message{Op: OpCore, Body: cb, BodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range extras {
		if x == any(prog) {
			extras[i] = "not a program"
		}
	}
	if _, err := wire.DecodeMessage(frame, extras); err == nil {
		t.Error("a Core body whose program reference is a string decoded")
	}
}

func TestRIMASBodyRoundTrip(t *testing.T) {
	rb := &RIMASBody{
		ProcName:   "r",
		HoldAtDest: true,
		PreCopied:  true,
		Runs: []CollapsedRun{
			{VA: 0, Pages: 4, Resident: true},
			{VA: 1 << 20, Pages: 9},
		},
	}
	out, err := wire.Transfer(&ipc.Message{Op: OpRIMAS, Body: rb, BodyBytes: rb.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Body.(*RIMASBody)
	if got.ProcName != "r" || !got.HoldAtDest || !got.PreCopied {
		t.Errorf("flags lost: %+v", got)
	}
	if len(got.Runs) != 2 || got.Runs[0] != rb.Runs[0] || got.Runs[1] != rb.Runs[1] {
		t.Errorf("runs lost: %+v", got.Runs)
	}
}

func TestAckBodyRoundTrip(t *testing.T) {
	ab := &AckBody{
		ProcName:     "a",
		CoreArrived:  time.Second,
		RIMASArrived: 2 * time.Second,
		InsertDone:   3 * time.Second,
		Insert:       InsertTimings{Overall: 400 * time.Millisecond, ArrivedPages: 7, ElidedPages: 2, ResumedPages: 1, RepairedPages: 3},
		Err:          "some failure",
	}
	out, err := wire.Transfer(&ipc.Message{Op: OpMigrateAck, Body: ab, BodyBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Body.(*AckBody)
	if *got != *ab {
		t.Errorf("ack mismatch: %+v vs %+v", got, ab)
	}
}

func TestPreCopyBodyRoundTrip(t *testing.T) {
	out, err := wire.Transfer(&ipc.Message{Op: OpPreCopy, Body: &PreCopyBody{ProcName: "w", Round: 3}, BodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Body.(*PreCopyBody)
	if got.ProcName != "w" || got.Round != 3 {
		t.Errorf("precopy body mismatch: %+v", got)
	}
}

func TestCodecRejectsWrongType(t *testing.T) {
	if _, _, err := wire.EncodeMessage(&ipc.Message{Op: OpCore, Body: "not a corebody"}); err == nil {
		t.Error("wrong body type accepted")
	}
}
