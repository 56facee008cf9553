package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/vm"
)

func roundTrip(t *testing.T, m *ipc.Message) *ipc.Message {
	t.Helper()
	if err := checkFrameShape(m); err != nil {
		t.Error(err)
	}
	out, err := Transfer(m)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	return out
}

// checkFrameShape reports a frame for m that is not allocated exactly
// once at the length FrameBytes predicts.
func checkFrameShape(m *ipc.Message) error {
	frame, _, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	fb, err := FrameBytes(m)
	if err != nil {
		return err
	}
	if len(frame) != fb || cap(frame) != fb {
		return fmt.Errorf("op %#x: frame len %d cap %d, FrameBytes %d", m.Op, len(frame), cap(frame), fb)
	}
	return nil
}

func TestRoundTripEnvelope(t *testing.T) {
	m := &ipc.Message{
		Op: 0x42, To: 7, ReplyTo: 9, BodyBytes: 123,
		NoIOUs: true, FaultSupport: true,
	}
	out := roundTrip(t, m)
	if out.Op != m.Op || out.To != m.To || out.ReplyTo != m.ReplyTo ||
		out.BodyBytes != m.BodyBytes || out.NoIOUs != m.NoIOUs || out.FaultSupport != m.FaultSupport {
		t.Errorf("envelope mismatch: %+v vs %+v", out, m)
	}
}

func TestRoundTripDataAttachment(t *testing.T) {
	att := &ipc.MemAttachment{
		Kind: ipc.AttachData, VA: 0x1234000, Size: 2 * 512,
		Collapsed: true, Resident: true, Copy: true,
		Runs: []vm.PageRun{
			{Index: 0, Count: 1, Data: []byte("page zero contents")},
			{Index: 7, Count: 1, Data: bytes.Repeat([]byte{0xAB}, 512)},
		},
	}
	m := &ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{att}}
	out := roundTrip(t, m)
	oa := out.Mem[0]
	if oa.Kind != att.Kind || oa.VA != att.VA || oa.Size != att.Size ||
		!oa.Collapsed || !oa.Resident || !oa.Copy {
		t.Errorf("attachment fields lost: %+v", oa)
	}
	if len(oa.Runs) != 2 || oa.Runs[1].Index != 7 || !bytes.Equal(oa.Runs[1].Data, att.Runs[1].Data) {
		t.Error("page data corrupted")
	}
	// Deep copy: mutating the original must not affect the decoded one.
	att.Runs[1].Data[0] = 0xFF
	if oa.Runs[1].Data[0] == 0xFF {
		t.Error("decoded message shares page buffers with the source")
	}
	// Decoded runs are capped windows onto one frame: growing the first
	// past its end must reallocate, not overwrite the next run's header
	// and data.
	_ = append(oa.Runs[0].Data, bytes.Repeat([]byte{0xEE}, 64)...)
	if oa.Runs[1].Index != 7 || !bytes.Equal(oa.Runs[1].Data, bytes.Repeat([]byte{0xAB}, 512)) {
		t.Error("appending to a decoded run overwrote the next run")
	}
}

func TestRoundTripMultiPageRun(t *testing.T) {
	att := &ipc.MemAttachment{
		Kind: ipc.AttachData, Size: 4 * 512,
		Runs: []vm.PageRun{{Index: 3, Count: 4, Data: bytes.Repeat([]byte{0xCD}, 4*512)}},
	}
	out := roundTrip(t, &ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{att}})
	oa := out.Mem[0]
	if len(oa.Runs) != 1 || oa.Runs[0].Index != 3 || oa.Runs[0].Count != 4 ||
		!bytes.Equal(oa.Runs[0].Data, att.Runs[0].Data) {
		t.Errorf("multi-page run corrupted: %+v", oa.Runs)
	}
	if oa.PageCount() != 4 {
		t.Errorf("PageCount = %d, want 4", oa.PageCount())
	}
}

func TestRoundTripIOUAttachment(t *testing.T) {
	att := &ipc.MemAttachment{
		Kind: ipc.AttachIOU, VA: 0x8000, Size: 1 << 20,
		SegID: 99, SegOff: 4096, SegSize: 2 << 20, Backing: 1234,
	}
	out := roundTrip(t, &ipc.Message{Op: 2, Mem: []*ipc.MemAttachment{att}})
	oa := out.Mem[0]
	if oa.Kind != att.Kind || oa.VA != att.VA || oa.Size != att.Size ||
		oa.SegID != att.SegID || oa.SegOff != att.SegOff ||
		oa.SegSize != att.SegSize || oa.Backing != att.Backing {
		t.Errorf("IOU mismatch: %+v vs %+v", oa, att)
	}
}

func TestRoundTripImagBodies(t *testing.T) {
	cases := []*ipc.Message{
		{Op: imag.OpReadRequest, Body: &imag.ReadRequest{SegID: 5, PageIdx: 9, Prefetch: 3}, BodyBytes: imag.ReadRequestBytes},
		{Op: imag.OpReadReply, Body: &imag.ReadReply{SegID: 5, Runs: []vm.PageRun{{Index: 9, Count: 1, Data: []byte("hi")}}}},
		{Op: imag.OpFlushReply, Body: &imag.ReadReply{SegID: 5}},
		{Op: imag.OpSegmentDeath, Body: &imag.SegmentDeath{SegID: 5}, BodyBytes: imag.SegmentDeathBytes},
		{Op: imag.OpFlush, Body: &imag.FlushRequest{SegID: 5}, BodyBytes: imag.FlushRequestBytes},
	}
	for _, m := range cases {
		out := roundTrip(t, m)
		switch want := m.Body.(type) {
		case *imag.ReadRequest:
			got := out.Body.(*imag.ReadRequest)
			if *got != *want {
				t.Errorf("ReadRequest: %+v vs %+v", got, want)
			}
		case *imag.ReadReply:
			got := out.Body.(*imag.ReadReply)
			if got.SegID != want.SegID || len(got.Runs) != len(want.Runs) {
				t.Errorf("ReadReply: %+v vs %+v", got, want)
			}
			for i := range want.Runs {
				if got.Runs[i].Index != want.Runs[i].Index ||
					got.Runs[i].Count != want.Runs[i].Count ||
					!bytes.Equal(got.Runs[i].Data, want.Runs[i].Data) {
					t.Errorf("ReadReply run %d mismatch", i)
				}
			}
		case *imag.SegmentDeath:
			if *out.Body.(*imag.SegmentDeath) != *want {
				t.Error("SegmentDeath mismatch")
			}
		case *imag.FlushRequest:
			if *out.Body.(*imag.FlushRequest) != *want {
				t.Error("FlushRequest mismatch")
			}
		}
	}
}

func TestPassthroughBody(t *testing.T) {
	m := &ipc.Message{Op: 0x7777, Body: "just a test payload", BodyBytes: 19}
	out := roundTrip(t, m)
	if out.Body.(string) != "just a test payload" {
		t.Errorf("passthrough body lost: %v", out.Body)
	}
}

func TestNilBody(t *testing.T) {
	out := roundTrip(t, &ipc.Message{Op: imag.OpReadRequest})
	if out.Body != nil {
		t.Errorf("nil body decoded as %v", out.Body)
	}
}

func TestTruncatedFrame(t *testing.T) {
	m := &ipc.Message{Op: 1, BodyBytes: 5, Mem: []*ipc.MemAttachment{{
		Kind: ipc.AttachData, Size: 512,
		Runs: []vm.PageRun{{Index: 0, Count: 1, Data: make([]byte, 512)}},
	}}}
	frame, extras, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(frame) / 2, len(frame) - 1} {
		if _, err := DecodeMessage(frame[:cut], extras); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	frame, extras, err := EncodeMessage(&ipc.Message{Op: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(frame, 0xEE), extras); err == nil {
		t.Error("trailing garbage not detected")
	}
}

func TestFrameBytesTracksWireBytes(t *testing.T) {
	// The analytic WireBytes estimate and the real encoded length must
	// stay within a small factor for representative message shapes.
	mk := func(pages int) *ipc.Message {
		att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: uint64(pages) * 512}
		att.Runs = append(att.Runs, vm.PageRun{Index: 0, Count: pages, Data: make([]byte, pages*512)})
		return &ipc.Message{Op: 1, BodyBytes: 64, Mem: []*ipc.MemAttachment{att}}
	}
	for _, pages := range []int{1, 16, 256} {
		m := mk(pages)
		fb, err := FrameBytes(m)
		if err != nil {
			t.Fatal(err)
		}
		wb := m.WireBytes()
		ratio := float64(fb) / float64(wb)
		if ratio < 0.7 || ratio > 1.5 {
			t.Errorf("%d pages: frame %d vs WireBytes %d (ratio %.2f)", pages, fb, wb, ratio)
		}
	}
}

// Property: arbitrary attachments survive the round trip bit-for-bit.
func TestQuickAttachmentRoundTrip(t *testing.T) {
	f := func(va uint32, size uint64, kind bool, flags [3]bool, pages [][]byte, segID, segOff uint64) bool {
		att := &ipc.MemAttachment{
			VA: vm.Addr(va), Size: size,
			Collapsed: flags[0], Resident: flags[1], Copy: flags[2],
			SegID: segID, SegOff: segOff,
		}
		if kind {
			att.Kind = ipc.AttachIOU
		} else {
			for i, d := range pages {
				if len(d) > 512 {
					d = d[:512]
				}
				att.AppendPage(uint64(i), d)
			}
		}
		m := &ipc.Message{Op: 3, Mem: []*ipc.MemAttachment{att}}
		if checkFrameShape(m) != nil {
			return false
		}
		out, err := Transfer(m)
		if err != nil {
			return false
		}
		oa := out.Mem[0]
		if oa.Kind != att.Kind || oa.VA != att.VA || oa.Size != att.Size ||
			oa.Collapsed != att.Collapsed || oa.Resident != att.Resident || oa.Copy != att.Copy ||
			oa.SegID != att.SegID || oa.SegOff != att.SegOff {
			return false
		}
		if len(oa.Runs) != len(att.Runs) {
			return false
		}
		for i := range att.Runs {
			if oa.Runs[i].Index != att.Runs[i].Index || oa.Runs[i].Count != att.Runs[i].Count ||
				!bytes.Equal(oa.Runs[i].Data, att.Runs[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTransferAllocsIndependentOfSize: a crossing allocates one frame of
// the exact length and decodes page runs as windows onto it, so its
// allocation count does not grow with the payload, and the page images
// are allocated once, in the frame.
func TestTransferAllocsIndependentOfSize(t *testing.T) {
	msg := func(pages int) *ipc.Message {
		return &ipc.Message{Op: 1, BodyBytes: 64, Mem: []*ipc.MemAttachment{{
			Kind: ipc.AttachData, Size: uint64(pages) * 512, Collapsed: true,
			Runs: []vm.PageRun{{Index: 0, Count: pages, Data: make([]byte, pages*512)}},
		}}}
	}
	transfer := func(m *ipc.Message) func() {
		return func() {
			if _, err := Transfer(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	big := msg(4096)
	if a, b := testing.AllocsPerRun(20, transfer(msg(1))), testing.AllocsPerRun(20, transfer(big)); a != b {
		t.Errorf("Transfer allocs: %v for 1 page, %v for 4096 pages", a, b)
	}
	const runs = 20
	transferBig := transfer(big)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		transferBig()
	}
	runtime.ReadMemStats(&after)
	fb, err := FrameBytes(big)
	if err != nil {
		t.Fatal(err)
	}
	// One frame, rounded up to the allocator's page size, plus the
	// message structs; a second copy of the payload would double it.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(fb)*3/2 {
		t.Errorf("Transfer of a %d-byte frame allocates %d bytes", fb, per)
	}
}

// TestDecodeHugeLengthDoesNotAllocate: lengths and counts read from a
// frame are checked against the bytes that remain before anything is
// sized from them, so a short frame that claims a 2 GiB body or four
// billion page sums fails as truncated without allocating.
func TestDecodeHugeLengthDoesNotAllocate(t *testing.T) {
	// A zeroed envelope up to the body-present flag, the flag, and a
	// body length of 2 GiB: 35 bytes in all.
	body := append(make([]byte, envelopeBytes-5), 1)
	body = binary.BigEndian.AppendUint32(body, 1<<31)
	att, _, err := EncodeMessage(&ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{{Kind: ipc.AttachData}}})
	if err != nil {
		t.Fatal(err)
	}
	// The first attachment's Sums count follows its CompBytes field.
	sumsAt := envelopeBytes + attachmentBytes - 8
	binary.BigEndian.PutUint32(att[sumsAt:], 1<<32-1)
	for name, frame := range map[string][]byte{"body": body, "sums": att} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeMessage(frame, []any{nil})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated frame") {
			t.Errorf("%s: DecodeMessage = %v, want a truncated-frame error", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", name, len(frame), grew)
		}
	}
}

// FuzzDecodeMessage feeds the frame decoder arbitrary bytes. Decoding
// must never panic, and a frame it accepts must survive a re-encode:
// decoding the re-encoded message gives back an equal message. The
// seed corpus in testdata/fuzz covers every frame section: envelope,
// collapsed data with page sums, multi-run data, a streaming read
// reply, a truncated frame and a frame claiming a 2 GiB body.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := DecodeMessage(frame, []any{nil})
		if err != nil {
			return
		}
		again, extras, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("re-encode of a decoded frame: %v", err)
		}
		m2, err := DecodeMessage(again, extras)
		if err != nil {
			t.Fatalf("decode of a re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, m2)
		}
	})
}
