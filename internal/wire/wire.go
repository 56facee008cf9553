// Package wire serializes IPC messages to bytes and back, so that
// everything a NetMsgServer forwards is provably self-contained — the
// §3.1 property that context messages "do not have to be preprocessed
// in any way". The simulator could pass Go pointers between machines;
// instead, every wire crossing encodes to a frame and decodes it at
// the peer, so the receiver gets a message of its own built from the
// frame, and a forgotten field shows the moment a test round-trips it.
//
// Page images cross by reference. The frame holds every header — the
// envelope, the body, each attachment, and each page run's index, page
// count and image length — and each non-empty run list rides beside it
// as one reference (an extra). DecodeMessage checks every run against
// its reference and hands out a fresh run list whose images are the
// sender's, each capped at its length, so an append reallocates instead
// of spilling into the next image. No crossing copies a page image.
// A body codec may send any other immutable value the same way
// (Encoder.Ref): the Core context's reference program crosses so.
//
// The immutability rule: a page image or a program is immutable from
// the moment a message carries it. A receiver installs a page image by
// borrowing (vm.Segment.Receive), and a write gives the page a private
// frame first. A sender whose image is live — a content-index entry
// aliases a frame that its page may still write — sends a copy, and
// whatever damages a delivered image damages a copy of it. A program is
// shared by every install of its workload and never written.
//
// Costs are still charged from ipc.Message.WireBytes (the calibrated
// analytic estimate); the frame's header bytes plus the referenced
// image bytes track it closely and tests assert the two stay within a
// small factor.
//
// Message bodies are arbitrary Go values, so ops register a BodyCodec;
// the copy-on-reference protocol bodies (package imag) are registered
// here, migration bodies (package core) register themselves in an
// init, and unregistered bodies pass by reference with a documented
// caveat (they are simulation-internal test payloads).
package wire

import (
	"encoding/binary"
	"fmt"

	"accentmig/internal/imag"
	"accentmig/internal/ipc"
	"accentmig/internal/vm"
)

// BodyCodec encodes and decodes one op's body type. Encode writes the
// body through w in both of an encoding's passes: once to measure, once
// to write the same fields into the frame (see Encoder). Decode reads
// the same fields back through r, which also holds the extras the
// body's page runs and nested messages took.
type BodyCodec struct {
	Encode func(w *Encoder, v any) error
	Decode func(r *Decoder) (v any, err error)
}

// UnmarshalImages decodes a body that arrives as bytes alone, with no
// extras: every page run takes its image from the front of images, in
// order, and a reference (Decoder.Ref) or a nested message's codec-less
// body decodes as nil. It lets a fuzzer reach page runs from bytes.
func (c BodyCodec) UnmarshalImages(body, images []byte) (any, error) {
	return c.unmarshal(&Decoder{b: body, images: &images})
}

func (c BodyCodec) unmarshal(r *Decoder) (v any, err error) {
	defer recoverDecode(&err, "body", len(r.b))
	if v, err = c.Decode(r); err != nil {
		return nil, err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: %d trailing body bytes", len(r.b)-r.off)
	}
	r.done()
	return v, nil
}

var bodyCodecs = map[int]BodyCodec{}

// RegisterBody installs the codec for an op. Later registrations for
// the same op win, which lets tests stub protocols.
func RegisterBody(op int, c BodyCodec) { bodyCodecs[op] = c }

// LookupBody returns the codec registered for op, if any.
func LookupBody(op int) (BodyCodec, bool) {
	c, ok := bodyCodecs[op]
	return c, ok
}

// Encoder writes big-endian fields in two passes: a measuring pass,
// with no buffer, only counts bytes and extras; a writing pass fills a
// buffer and an extras slice allocated once at those counts.
// EncodeMessage drives both passes, and a codec must write the same
// fields in each.
type Encoder struct {
	b      []byte // nil while measuring
	n      int    // bytes measured or written so far
	nx     int    // extras measured or written so far
	extras []any  // filled while writing
}

// U8 writes one byte.
func (w *Encoder) U8(v uint8) {
	if w.b != nil {
		w.b[w.n] = v
	}
	w.n++
}

// U32 writes v big-endian.
func (w *Encoder) U32(v uint32) {
	if w.b != nil {
		binary.BigEndian.PutUint32(w.b[w.n:], v)
	}
	w.n += 4
}

// U64 writes v big-endian.
func (w *Encoder) U64(v uint64) {
	if w.b != nil {
		binary.BigEndian.PutUint64(w.b[w.n:], v)
	}
	w.n += 8
}

// I64 writes v as its two's-complement uint64.
func (w *Encoder) I64(v int64) { w.U64(uint64(v)) }

// Bool writes v as one byte, 1 or 0.
func (w *Encoder) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes v's length and then its bytes.
func (w *Encoder) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	if w.b != nil {
		copy(w.b[w.n:], v)
	}
	w.n += len(v)
}

// Str writes v like Bytes.
func (w *Encoder) Str(v string) {
	w.U32(uint32(len(v)))
	if w.b != nil {
		copy(w.b[w.n:], v)
	}
	w.n += len(v)
}

// Ref sends v by reference: it rides beside the frame as the next
// extra, and no byte of it enters the frame. v must be immutable from
// here on (see the package comment). Decoder.Ref takes it back.
func (w *Encoder) Ref(v any) {
	if w.b != nil {
		w.extras = append(w.extras, v)
	}
	w.nx++
}

// Message writes m as a nested message: its frame, and how many extras
// it took, which ride beside the outer frame. Decoder.Message reads it
// back.
func (w *Encoder) Message(m *ipc.Message) error {
	frame, extras, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	w.Bytes(frame)
	w.U32(uint32(len(extras)))
	for _, x := range extras {
		w.Ref(x)
	}
	return nil
}

// Decoder reads the big-endian fields an Encoder wrote, in the same
// order, and takes the extras riding beside them. A read past the end
// of its buffer, and a missing, mistyped or mismatched extra, panics;
// the decode entry points turn that panic into an error.
type Decoder struct {
	b    []byte
	off  int
	refs []any // the extras still to take, in order
	// images, when set, stands in for the extras: each page run takes
	// its image from the front, and a reference or a codec-less body is
	// nil. Fuzzers decode frames from bytes this way (UnmarshalImages).
	images *[]byte
}

// truncated and badRef are the panics a Decoder raises.
type (
	truncated struct{}
	badRef    string
)

// recoverDecode turns the panic a Decoder raises while reading an
// n-byte buffer into *err, naming what was read; any other panic goes
// on. It must be deferred directly.
func recoverDecode(err *error, what string, n int) {
	switch rec := recover().(type) {
	case nil:
	case truncated:
		*err = fmt.Errorf("wire: truncated %s (%d bytes)", what, n)
	case badRef:
		*err = fmt.Errorf("wire: %s (%d bytes): %s", what, n, string(rec))
	default:
		panic(rec)
	}
}

// need consumes the next n bytes and returns them as a window capped
// at its own length. The bounds check comes before anything is sized
// from n, so a corrupt length cannot make the decoder allocate.
func (r *Decoder) need(n int) []byte {
	if n < 0 || n > len(r.b)-r.off {
		panic(truncated{})
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Decoder) U8() uint8 { return r.need(1)[0] }

// U32 reads a big-endian uint32.
func (r *Decoder) U32() uint32 { return binary.BigEndian.Uint32(r.need(4)) }

// U64 reads a big-endian uint64.
func (r *Decoder) U64() uint64 { return binary.BigEndian.Uint64(r.need(8)) }

// I64 reads an int64 written by Encoder.I64.
func (r *Decoder) I64() int64 { return int64(r.U64()) }

// Bool reads a byte written by Encoder.Bool.
func (r *Decoder) Bool() bool { return r.U8() != 0 }

// Bytes reads a length and then that many bytes, returned as a window
// onto the buffer capped at its own length, not a copy: nothing writes
// a frame after decoding it.
func (r *Decoder) Bytes() []byte { return r.need(int(r.U32())) }

// Str reads a string written by Encoder.Str.
func (r *Decoder) Str() string { return string(r.Bytes()) }

// Count reads an item count and checks it against the bytes left, at
// least size bytes an item, so a slice made from it is sized once and
// never larger than the buffer could fill.
func (r *Decoder) Count(size int) int {
	n := int(r.U32())
	if n > (len(r.b)-r.off)/size {
		panic(truncated{})
	}
	return n
}

// take takes the next n extras; with images standing in, none.
func (r *Decoder) take(n int) []any {
	if r.images != nil {
		return nil
	}
	if n > len(r.refs) {
		panic(badRef(fmt.Sprintf("%d extras missing", n-len(r.refs))))
	}
	v := r.refs[:n:n]
	r.refs = r.refs[n:]
	return v
}

// Ref takes the value an Encoder.Ref sent. A body decoded from bytes
// alone (UnmarshalImages) has no extras, and its references are nil.
func (r *Decoder) Ref() any {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return nil
}

// done checks that every extra was taken.
func (r *Decoder) done() {
	if len(r.refs) > 0 {
		panic(badRef(fmt.Sprintf("%d extras left over", len(r.refs))))
	}
}

// runs decodes a run list written by writeRuns: the headers from the
// buffer, each checked against the run list that rides beside it as one
// extra. The list is fresh, and each image is the sender's, capped at
// its length.
func (r *Decoder) runs() []vm.PageRun {
	n := r.Count(runHeaderBytes)
	if n == 0 {
		return nil
	}
	var ref []vm.PageRun
	if r.images == nil {
		v := r.take(1)[0]
		var ok bool
		if ref, ok = v.([]vm.PageRun); !ok || len(ref) != n {
			panic(badRef(fmt.Sprintf("a list of %d runs has extra %T of length %d", n, v, len(ref))))
		}
	}
	runs := make([]vm.PageRun, n)
	for i := range runs {
		run := vm.PageRun{Index: r.U64(), Count: int(r.U32())}
		size := int(r.U32())
		if ref == nil {
			src := *r.images
			if size > len(src) {
				panic(badRef(fmt.Sprintf("run %d wants %d image bytes, %d left", i, size, len(src))))
			}
			run.Data, *r.images = src[:size:size], src[size:]
		} else {
			got := ref[i]
			if got.Index != run.Index || got.Count != run.Count || len(got.Data) != size {
				panic(badRef(fmt.Sprintf("run %d does not match its extra", i)))
			}
			run.Data = got.Data[:size:size]
		}
		runs[i] = run
	}
	return runs
}

// writeRuns writes a run list: its count and each run's index, page
// count and image length. The list itself, images and all, rides beside
// the frame as one extra.
func writeRuns(w *Encoder, runs []vm.PageRun) {
	w.U32(uint32(len(runs)))
	for _, run := range runs {
		w.U64(run.Index)
		w.U32(uint32(run.Count))
		w.U32(uint32(len(run.Data)))
	}
	if len(runs) > 0 {
		w.Ref(runs)
	}
}

// Message reads a message nested by Encoder.Message, taking the extras
// it took.
func (r *Decoder) Message() (*ipc.Message, error) {
	frame := r.Bytes()
	nested := &Decoder{b: frame, refs: r.take(int(r.U32())), images: r.images}
	return nested.message()
}

// EncodeMessage serializes m into a fresh frame allocated once at its
// exact length: a measuring pass sizes the frame and its extras, and a
// writing pass fills them. The body is encoded through its op's
// registered codec; with no codec the body rides beside the frame as
// its first extra (it is a simulation-internal payload that never
// reaches real bytes). Every non-empty page-run list rides as one
// extra after the body's.
func EncodeMessage(m *ipc.Message) (frame []byte, extras []any, err error) {
	codec, coded := bodyCodec(m)
	var w Encoder // serves both passes: a codec call moves it to the heap
	bodyLen, err := writeMessage(&w, m, codec, coded, 0)
	if err != nil {
		return nil, nil, err
	}
	n, nx := w.n, w.nx
	w = Encoder{b: make([]byte, n), extras: make([]any, 0, nx)}
	if _, err := writeMessage(&w, m, codec, coded, bodyLen); err != nil {
		return nil, nil, err
	}
	if w.n != n || w.nx != nx {
		return nil, nil, fmt.Errorf("wire: op %#x body codec wrote %d bytes and %d extras, measured %d and %d",
			m.Op, w.n, w.nx, n, nx)
	}
	return w.b, w.extras, nil
}

// bodyCodec returns m's body codec. coded reports whether the body
// travels in the frame; otherwise it rides in extras by reference.
func bodyCodec(m *ipc.Message) (BodyCodec, bool) {
	codec, ok := bodyCodecs[m.Op]
	return codec, ok && m.Body != nil
}

// writeMessage writes m's frame through w and returns the length of
// the body its codec wrote. The body's length prefix comes first, so a
// writing pass passes in the bodyLen its measuring pass returned. The
// count of extras the body took follows it, so a decoder knows where
// the attachments' extras start.
func writeMessage(w *Encoder, m *ipc.Message, codec BodyCodec, coded bool, bodyLen int) (int, error) {
	w.I64(int64(m.Op))
	w.U64(uint64(m.To))
	w.U64(uint64(m.ReplyTo))
	w.U32(uint32(m.BodyBytes))
	w.Bool(m.NoIOUs)
	w.Bool(m.FaultSupport)
	w.Bool(coded)
	if coded {
		w.U32(uint32(bodyLen))
		start, nx := w.n, w.nx
		if err := codec.Encode(w, m.Body); err != nil {
			return 0, fmt.Errorf("wire: encode op %#x body: %w", m.Op, err)
		}
		bodyLen = w.n - start
		w.U32(uint32(w.nx - nx))
	} else {
		w.Ref(m.Body)
	}
	w.U32(uint32(len(m.Mem)))
	for _, a := range m.Mem {
		encodeAttachment(w, a)
	}
	return bodyLen, nil
}

// Encoded sizes of the frame's fixed parts.
const (
	// envelopeBytes: op, to, reply-to, body bytes, NoIOUs,
	// FaultSupport, body-present flag, and the attachment count.
	envelopeBytes = 8 + 8 + 8 + 4 + 1 + 1 + 1 + 4
	// attachmentBytes: kind, VA, size, three flags, segment id, offset
	// and size, backing port, CompBytes, and the Sums and Runs counts.
	attachmentBytes = 1 + 8 + 8 + 3 + 8 + 8 + 8 + 8 + 4 + 4 + 4
	// runHeaderBytes: index, page count and image length of one run.
	runHeaderBytes = 8 + 4 + 4
)

func encodeAttachment(w *Encoder, a *ipc.MemAttachment) {
	w.U8(uint8(a.Kind))
	w.U64(uint64(a.VA))
	w.U64(a.Size)
	w.Bool(a.Collapsed)
	w.Bool(a.Resident)
	w.Bool(a.Copy)
	w.U64(a.SegID)
	w.U64(a.SegOff)
	w.U64(a.SegSize)
	w.U64(uint64(a.Backing))
	w.U32(uint32(a.CompBytes))
	w.U32(uint32(len(a.Sums)))
	for _, s := range a.Sums {
		w.U64(s)
	}
	writeRuns(w, a.Runs)
}

// DecodeMessage reconstructs a message from a frame and the extras its
// encoder produced. Decoded page runs, in attachments and in bodies,
// are fresh lists whose images are the sender's, so the receiver
// borrows them (see the package comment). A caller must not reuse or
// modify the frame afterwards. A truncated frame, trailing bytes, and
// a missing, mistyped, mismatched or left-over extra are errors.
func DecodeMessage(frame []byte, extras []any) (*ipc.Message, error) {
	return (&Decoder{b: frame, refs: extras}).message()
}

// message decodes the frame r reads, taking every extra r holds.
func (r *Decoder) message() (_ *ipc.Message, err error) {
	defer recoverDecode(&err, "frame", len(r.b))
	m := &ipc.Message{
		Op:      int(r.I64()),
		To:      ipc.PortID(r.U64()),
		ReplyTo: ipc.PortID(r.U64()),
	}
	m.BodyBytes = int(r.U32())
	m.NoIOUs = r.Bool()
	m.FaultSupport = r.Bool()

	if r.U8() == 1 {
		body := r.Bytes()
		refs := r.take(int(r.U32()))
		codec, ok := bodyCodecs[m.Op]
		if !ok {
			return nil, fmt.Errorf("wire: frame carries op %#x body but no codec is registered", m.Op)
		}
		v, err := codec.unmarshal(&Decoder{b: body, refs: refs, images: r.images})
		if err != nil {
			return nil, fmt.Errorf("wire: decode op %#x body: %w", m.Op, err)
		}
		m.Body = v
	} else if refs := r.take(1); refs != nil {
		m.Body = refs[0]
	}

	if n := r.Count(attachmentBytes); n > 0 {
		m.Mem = make([]*ipc.MemAttachment, n)
		for i := range m.Mem {
			m.Mem[i] = decodeAttachment(r)
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	r.done()
	return m, nil
}

func decodeAttachment(r *Decoder) *ipc.MemAttachment {
	a := &ipc.MemAttachment{
		Kind:      ipc.AttachKind(r.U8()),
		VA:        vm.Addr(r.U64()),
		Size:      r.U64(),
		Collapsed: r.Bool(),
		Resident:  r.Bool(),
		Copy:      r.Bool(),
		SegID:     r.U64(),
		SegOff:    r.U64(),
		SegSize:   r.U64(),
		Backing:   ipc.PortID(r.U64()),
	}
	a.CompBytes = int(r.U32())
	if n := r.Count(8); n > 0 {
		a.Sums = make([]uint64, n)
		for i := range a.Sums {
			a.Sums[i] = r.U64()
		}
	}
	a.Runs = r.runs()
	return a
}

// Transfer encodes and immediately decodes a message — the simulator's
// wire crossing. The result is a new message with its own attachments
// and run lists; its page images are the input's, which the
// immutability rule (see the package comment) keeps unchanged.
// Codec-less bodies pass by reference, documented above.
func Transfer(m *ipc.Message) (*ipc.Message, error) {
	frame, extras, err := EncodeMessage(m)
	if err != nil {
		return nil, err
	}
	out, err := DecodeMessage(frame, extras)
	if err != nil {
		return nil, err
	}
	// The trace correlation id rides along outside the frame: it is
	// observability metadata (like Background), not protocol state, so
	// the codec never sees it but each hop preserves it.
	out.ID = m.ID
	return out, nil
}

// FragCount reports how many link-level fragments a frame of n bytes
// occupies (always at least one), given the transport's per-fragment
// payload capacity fragBytes plus headroom bytes reserved for protocol
// headers. This is the single fragmentation unit — fragBytes +
// headroom — shared by the netmsg fragment math and the frame
// encoder's tests, so the two accountings cannot drift.
func FragCount(n, fragBytes, headroom int) int {
	unit := fragBytes + headroom
	if unit <= 0 {
		return 1
	}
	frags := (n + unit - 1) / unit
	if frags < 1 {
		frags = 1
	}
	return frags
}

// --- built-in codecs for the copy-on-reference protocol ---

func init() {
	RegisterBody(imag.OpReadRequest, BodyCodec{
		Encode: func(w *Encoder, v any) error {
			rq, ok := v.(*imag.ReadRequest)
			if !ok {
				return fmt.Errorf("want *imag.ReadRequest, got %T", v)
			}
			w.U64(rq.SegID)
			w.U64(rq.PageIdx)
			w.I64(int64(rq.Prefetch))
			w.U64(rq.StreamTo)
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			return &imag.ReadRequest{
				SegID:    r.U64(),
				PageIdx:  r.U64(),
				Prefetch: int(r.I64()),
				StreamTo: r.U64(),
			}, nil
		},
	})
	replyCodec := BodyCodec{
		Encode: func(w *Encoder, v any) error {
			rp, ok := v.(*imag.ReadReply)
			if !ok {
				return fmt.Errorf("want *imag.ReadReply, got %T", v)
			}
			w.U64(rp.SegID)
			w.Bool(rp.Streaming)
			writeRuns(w, rp.Runs)
			// StreamRuns are index/count pairs only — the promised pages'
			// data travels in the background replies that follow.
			w.U32(uint32(len(rp.StreamRuns)))
			for _, run := range rp.StreamRuns {
				w.U64(run.Index)
				w.U32(uint32(run.Count))
			}
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			rp := &imag.ReadReply{SegID: r.U64(), Streaming: r.Bool()}
			rp.Runs = r.runs()
			if n := r.Count(8 + 4); n > 0 {
				rp.StreamRuns = make([]vm.PageRun, n)
				for i := range rp.StreamRuns {
					rp.StreamRuns[i].Index = r.U64()
					rp.StreamRuns[i].Count = int(r.U32())
				}
			}
			return rp, nil
		},
	}
	RegisterBody(imag.OpReadReply, replyCodec)
	RegisterBody(imag.OpFlushReply, replyCodec)
	RegisterBody(imag.OpSegmentDeath, BodyCodec{
		Encode: func(w *Encoder, v any) error {
			d, ok := v.(*imag.SegmentDeath)
			if !ok {
				return fmt.Errorf("want *imag.SegmentDeath, got %T", v)
			}
			w.U64(d.SegID)
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			return &imag.SegmentDeath{SegID: r.U64()}, nil
		},
	})
	RegisterBody(imag.OpReadError, BodyCodec{
		Encode: func(w *Encoder, v any) error {
			e, ok := v.(*imag.ReadError)
			if !ok {
				return fmt.Errorf("want *imag.ReadError, got %T", v)
			}
			w.U64(e.SegID)
			w.U64(e.PageIdx)
			w.Str(e.Reason)
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			return &imag.ReadError{
				SegID:   r.U64(),
				PageIdx: r.U64(),
				Reason:  r.Str(),
			}, nil
		},
	})
	RegisterBody(imag.OpHashRead, BodyCodec{
		Encode: func(w *Encoder, v any) error {
			h, ok := v.(*imag.HashRead)
			if !ok {
				return fmt.Errorf("want *imag.HashRead, got %T", v)
			}
			w.U64(h.Hash)
			w.U64(h.SegID)
			w.U64(h.Page)
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			return &imag.HashRead{Hash: r.U64(), SegID: r.U64(), Page: r.U64()}, nil
		},
	})
	RegisterBody(imag.OpFlush, BodyCodec{
		Encode: func(w *Encoder, v any) error {
			f, ok := v.(*imag.FlushRequest)
			if !ok {
				return fmt.Errorf("want *imag.FlushRequest, got %T", v)
			}
			w.U64(f.SegID)
			w.U32(uint32(f.MaxPages))
			return nil
		},
		Decode: func(r *Decoder) (any, error) {
			return &imag.FlushRequest{SegID: r.U64(), MaxPages: int(r.U32())}, nil
		},
	})
}
