package core

import (
	"bytes"
	"strings"
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
	prog := &trace.Program{Ops: []trace.Op{
		trace.Compute{D: 100 * time.Millisecond},
		trace.IOWait{D: time.Second},
		trace.Touch{Addr: 512, Write: true},
		trace.SeqScan{Start: 0, Bytes: 4096, Stride: 1024, Write: true, PerTouch: time.Millisecond},
		trace.WSLoop{Start: 0, Pages: 8, Iters: 3, Compute: 50 * time.Millisecond, Write: true},
		trace.MigratePoint{},
	}}
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
	if len(got.Program.Ops) != len(prog.Ops) {
		t.Fatalf("program length %d, want %d", len(got.Program.Ops), len(prog.Ops))
	}
	for i := range prog.Ops {
		if got.Program.Ops[i] != prog.Ops[i] {
			t.Errorf("op %d: %+v vs %+v", i, got.Program.Ops[i], prog.Ops[i])
		}
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
		Insert:       InsertTimings{Overall: 400 * time.Millisecond, ArrivedPages: 7, IOURuns: 2, ZeroRuns: 3},
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

// TestDecodeRejectsRetiredOpTag: program op tag 4 named a random-touch
// op that no workload built. The tag stays unused, so a Core body that
// carries it is refused instead of decoding as another op.
func TestDecodeRejectsRetiredOpTag(t *testing.T) {
	prog := &trace.Program{Ops: []trace.Op{trace.Compute{D: 0x0102030405060708}, trace.MigratePoint{}}}
	frame, extras, err := wire.EncodeMessage(&ipc.Message{
		Op:        OpCore,
		Body:      &CoreBody{ProcName: "p", AMap: &vm.AMap{PageSize: 512}, Program: prog},
		BodyBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The Compute duration, then the MigratePoint's tag.
	at := bytes.Index(frame, []byte{1, 2, 3, 4, 5, 6, 7, 8, opTagMigrate})
	if at < 0 {
		t.Fatal("program ops not found in the frame")
	}
	frame[at+8] = 4
	if _, err := wire.DecodeMessage(frame, extras); err == nil || !strings.Contains(err.Error(), "unknown trace op tag 4") {
		t.Fatalf("decode of op tag 4: err = %v, want unknown trace op tag 4", err)
	}
	frame[at+8] = opTagMigrate
	if _, err := wire.DecodeMessage(frame, extras); err != nil {
		t.Fatalf("decode of the unpatched frame: %v", err)
	}
}

func TestCodecRejectsWrongType(t *testing.T) {
	if _, _, err := wire.EncodeMessage(&ipc.Message{Op: OpCore, Body: "not a corebody"}); err == nil {
		t.Error("wrong body type accepted")
	}
}
