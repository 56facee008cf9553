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
// once at its length.
func checkFrameShape(m *ipc.Message) error {
	frame, _, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	if len(frame) != cap(frame) {
		return fmt.Errorf("op %#x: frame len %d cap %d", m.Op, len(frame), cap(frame))
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
	// Pages cross by reference: each decoded image is the source's
	// bytes, in a run list of the decoded message's own.
	if &oa.Runs[1].Data[0] != &att.Runs[1].Data[0] {
		t.Error("the decoded image is a copy of the source's")
	}
	oa.Runs[1].Index = 9
	if att.Runs[1].Index != 7 {
		t.Error("the decoded message shares its run list with the source")
	}
	// Each decoded image is capped at its length: growing the first
	// must reallocate, not overwrite the source's bytes after it.
	src := make([]byte, 512)
	first := &ipc.MemAttachment{Kind: ipc.AttachData, Size: 512,
		Runs: []vm.PageRun{{Index: 0, Count: 1, Data: src[:18]}}}
	grown := append(roundTrip(t, &ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{first}}).Mem[0].Runs[0].Data, 0xEE)
	if src[18] != 0 || &grown[0] == &src[0] {
		t.Error("appending to a decoded image wrote past its end")
	}
}

// TestPageNamesStayOnHost checks that an attachment's cached page
// names are host-side only: naming the pages changes neither the frame
// bytes nor the priced size, and the decoded copy starts unnamed.
func TestPageNamesStayOnHost(t *testing.T) {
	ps := vm.DefaultPageSize
	data := make([]byte, 3*ps-40)
	for i := range data {
		data[i] = byte(i*5 + 3)
	}
	mk := func() *ipc.Message {
		return &ipc.Message{Op: 0x42, BodyBytes: 16, Mem: []*ipc.MemAttachment{{
			Kind: ipc.AttachData, Size: uint64(len(data)), Collapsed: true,
			Runs: []vm.PageRun{{Index: 0, Count: 3, Data: data}},
			Sums: []uint64{1, 2, 3},
		}}}
	}
	plain, named := mk(), mk()
	if len(named.Mem[0].PageHashes(ps)) != 3 {
		t.Fatal("attachment not named")
	}
	want, _, err := EncodeMessage(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := EncodeMessage(named)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("cached page names changed the frame bytes")
	}
	if named.WireBytes() != plain.WireBytes() {
		t.Errorf("WireBytes %d with cached names, %d without", named.WireBytes(), plain.WireBytes())
	}
	out := roundTrip(t, named)
	if out.Mem[0].CachedPageHashes(ps) != nil {
		t.Error("the decoded attachment arrived with cached page names")
	}
	if again, _, _ := EncodeMessage(out); !bytes.Equal(again, want) {
		t.Error("re-encoding the decoded message changed the frame bytes")
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
	// A body its codec does not read to the end is refused too.
	codec, _ := LookupBody(imag.OpSegmentDeath)
	body := []byte{0, 0, 0, 0, 0, 0, 0, 7, 0xEE}
	if _, err := codec.UnmarshalImages(body, nil); err == nil || err.Error() != "wire: 1 trailing body bytes" {
		t.Errorf("a body with one unread byte: err = %v, want wire: 1 trailing body bytes", err)
	}
	if v, err := codec.UnmarshalImages(body[:8], nil); err != nil || v.(*imag.SegmentDeath).SegID != 7 {
		t.Errorf("the body without it: %v, %v", v, err)
	}
}

func TestFrameBytesTracksWireBytes(t *testing.T) {
	// The analytic WireBytes estimate and what really crosses — the
	// frame's header bytes plus the page images riding beside it — must
	// stay within a small factor for representative message shapes.
	mk := func(pages int) *ipc.Message {
		att := &ipc.MemAttachment{Kind: ipc.AttachData, Size: uint64(pages) * 512}
		att.Runs = append(att.Runs, vm.PageRun{Index: 0, Count: pages, Data: make([]byte, pages*512)})
		return &ipc.Message{Op: 1, BodyBytes: 64, Mem: []*ipc.MemAttachment{att}}
	}
	for _, pages := range []int{1, 16, 256} {
		m := mk(pages)
		frame, _, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		fb := len(frame)
		crossed := fb + vm.RunDataBytes(m.Mem[0].Runs)
		wb := m.WireBytes()
		ratio := float64(crossed) / float64(wb)
		if ratio < 0.7 || ratio > 1.5 {
			t.Errorf("%d pages: frame %d + images %d vs WireBytes %d (ratio %.2f)",
				pages, fb, crossed-fb, wb, ratio)
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

// TestTransferAllocsIndependentOfSize: a crossing allocates a frame of
// headers and passes page images by reference, so neither its
// allocation count nor its allocated bytes grow with the payload.
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
	small, big := msg(1), msg(4096)
	if a, b := testing.AllocsPerRun(20, transfer(small)), testing.AllocsPerRun(20, transfer(big)); a != b {
		t.Errorf("Transfer allocs: %v for 1 page, %v for 4096 pages", a, b)
	}
	bytesPer := func(m *ipc.Message) uint64 {
		const runs = 20
		f := transfer(m)
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if a, b := bytesPer(small), bytesPer(big); a != b {
		t.Errorf("Transfer allocates %d bytes for 1 page, %d for 4096 pages", a, b)
	}
}

// TestDecodeRejectsBadExtras: a run list's headers ride in the frame
// and its images beside it as one extra, which the decoder checks
// against them. A missing, mistyped, short or left-over extra is an
// error, never a panic, and so is a coded body that took more extras
// than ride beside the frame.
func TestDecodeRejectsBadExtras(t *testing.T) {
	runs := []vm.PageRun{{Index: 2, Count: 1, Data: make([]byte, 512)}}
	data := &ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{{Kind: ipc.AttachData, Size: 512, Runs: runs}}}
	frame, extras, err := EncodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(extras) != 2 || extras[0] != nil {
		t.Fatalf("extras %v: want the codec-less body, then one run list", extras)
	}
	reply := &ipc.Message{Op: imag.OpReadReply, Body: &imag.ReadReply{SegID: 1, Runs: runs}}
	replyFrame, replyExtras, err := EncodeMessage(reply)
	if err != nil {
		t.Fatal(err)
	}
	short := []vm.PageRun{{Index: 2, Count: 1, Data: make([]byte, 511)}}
	moved := []vm.PageRun{{Index: 3, Count: 1, Data: runs[0].Data}}
	for name, c := range map[string]struct {
		frame  []byte
		extras []any
	}{
		"missing":          {frame, extras[:1]},
		"mistyped":         {frame, []any{nil, runs[0]}},
		"short":            {frame, []any{nil, short}},
		"moved":            {frame, []any{nil, moved}},
		"too many runs":    {frame, []any{nil, append(runs, runs...)}},
		"left over":        {frame, append(extras, runs)},
		"body missing":     {replyFrame, nil},
		"body left over":   {replyFrame, append(replyExtras, nil)},
		"body mistyped":    {replyFrame, []any{"runs"}},
		"codec-less empty": {frame, nil},
	} {
		if _, err := DecodeMessage(c.frame, c.extras); err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
	if _, err := DecodeMessage(frame, extras); err != nil {
		t.Errorf("the encoder's own extras: %v", err)
	}
	if _, err := DecodeMessage(replyFrame, replyExtras); err != nil {
		t.Errorf("the encoder's own reply extras: %v", err)
	}
}

// TestDecodeHugeLengthDoesNotAllocate: lengths and counts read from a
// frame are checked against the bytes that remain before anything is
// sized from them, so a short frame that claims a 2 GiB body, four
// billion page sums or four billion page runs fails as truncated
// without allocating.
func TestDecodeHugeLengthDoesNotAllocate(t *testing.T) {
	// A zeroed envelope up to the body-present flag, the flag, and a
	// body length of 2 GiB: 35 bytes in all.
	body := append(make([]byte, envelopeBytes-5), 1)
	body = binary.BigEndian.AppendUint32(body, 1<<31)
	att, _, err := EncodeMessage(&ipc.Message{Op: 1, Mem: []*ipc.MemAttachment{{Kind: ipc.AttachData}}})
	if err != nil {
		t.Fatal(err)
	}
	// The first attachment's Sums count follows its CompBytes field, and
	// its Runs count the Sums.
	sumsAt := envelopeBytes + attachmentBytes - 8
	runs := bytes.Clone(att)
	binary.BigEndian.PutUint32(att[sumsAt:], 1<<32-1)
	binary.BigEndian.PutUint32(runs[sumsAt+4:], 1<<32-1)
	for name, frame := range map[string][]byte{"body": body, "sums": att, "runs": runs} {
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

// FuzzDecodeMessage feeds the frame decoder arbitrary bytes, with page
// images from a second byte string in place of the extras (see
// Decoder.images). Decoding must never panic, and a frame it accepts must
// survive a re-encode: decoding the re-encoded message with its extras
// gives back an equal message. The seed corpus in testdata/fuzz covers
// every frame section: envelope, collapsed data with page sums, a
// collapsed attachment of one-page runs, multi-run data, a streaming
// read reply, a read reply of several runs, a truncated frame, a frame
// claiming a 2 GiB body and one whose run count exceeds its bytes.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame, images []byte) {
		m, err := (&Decoder{b: frame, images: &images}).message()
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
