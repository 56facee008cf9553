// Package wire serializes IPC messages to bytes and back, so that
// everything a NetMsgServer forwards is provably self-contained — the
// §3.1 property that context messages "do not have to be preprocessed
// in any way". The simulator could pass Go pointers between machines;
// instead, every wire crossing encodes to a frame and decodes it at
// the peer, making accidental cross-machine sharing impossible and
// catching any forgotten field the moment a test round-trips it.
//
// The frame is the crossing's one host copy of each page image:
// EncodeMessage measures the message, allocates the frame once at its
// exact length and writes the body and every page image straight into
// it (body codecs write through the same two-pass Encoder), and
// DecodeMessage hands out page runs as capped windows onto it (an
// append reallocates instead of spilling into the next run).
//
// The ownership rule: a message DecodeMessage returns owns its frame,
// and carries the ownership bit to say so (ipc.Message.Owned); only
// the decoder sets it. Its receiver may adopt the page windows as page
// frames (vm.Segment.Adopt) instead of copying them. Every other
// message shares its page images with something that keeps them — a
// dead process's context, an IOU store, a workload template — so its
// receiver copies them (vm.Segment.Materialize): a sender's own
// message, a same-machine delivery, the context a rollback reinstalls.
// A caller must not reuse a frame after decoding it.
//
// Costs are still charged from ipc.Message.WireBytes (the calibrated
// analytic estimate); the encoded frame length tracks it closely and
// tests assert the two stay within a small factor.
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
// body through w and is called twice per encoding: once to measure,
// once to write the same fields into the frame (see Encoder). Extras carry opaque
// references that cannot be byte-encoded (bodies of nested pending
// mail without codecs); they ride alongside the frame and must be
// consumed in order by Decode. Most codecs ignore them.
type BodyCodec struct {
	Encode func(w *Encoder, v any) error
	Decode func(frame []byte, extras []any) (v any, err error)
}

// Marshal encodes v alone into a buffer of its exact length: the body
// bytes a frame carries for it, and the extras riding beside them.
func (c BodyCodec) Marshal(v any) (body []byte, extras []any, err error) {
	var m Encoder
	if err := c.Encode(&m, v); err != nil {
		return nil, nil, err
	}
	w := &Encoder{b: make([]byte, m.n)}
	if err := c.Encode(w, v); err != nil {
		return nil, nil, err
	}
	if w.n != m.n {
		return nil, nil, fmt.Errorf("codec wrote %d bytes, measured %d", w.n, m.n)
	}
	return w.b, w.extras, nil
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
// with no buffer, only counts bytes; a writing pass fills a buffer
// allocated once at that count. Whoever drives it (EncodeMessage,
// Marshal) makes both passes, and a codec must write the same fields
// in each, so every frame and body is allocated once at its exact
// length and page images are copied once, straight into it.
type Encoder struct {
	b      []byte // nil while measuring
	n      int    // bytes measured or written so far
	extras []any  // collected while writing
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

// Extra appends opaque references that ride beside the frame, in
// order. Only the writing pass keeps them.
func (w *Encoder) Extra(vs ...any) {
	if w.b != nil {
		w.extras = append(w.extras, vs...)
	}
}

// Decoder reads the big-endian fields an Encoder wrote, in the same
// order. A read past the end of its buffer panics; Decode and
// DecodeMessage turn that panic into an error.
type Decoder struct {
	b   []byte
	off int
}

type truncated struct{}

// Decode runs fn over a Decoder reading b and returns what fn returns.
// A read past the end of b becomes an error, so a body codec that
// decodes through it never panics on a truncated body.
func Decode(b []byte, fn func(*Decoder) (any, error)) (v any, err error) {
	defer untruncate(&err, "body", len(b))
	return fn(&Decoder{b: b})
}

// untruncate turns the panic a Decoder raises on a read past the end
// of an n-byte buffer into *err, naming what was read; any other panic
// goes on. It must be deferred directly.
func untruncate(err *error, what string, n int) {
	if rec := recover(); rec != nil {
		if _, ok := rec.(truncated); !ok {
			panic(rec)
		}
		*err = fmt.Errorf("wire: truncated %s (%d bytes)", what, n)
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

// runs decodes a run list written by writeRuns: page data windows onto
// the frame, the slice sized once from its checked count.
func (r *Decoder) runs() []vm.PageRun {
	n := r.Count(runHeaderBytes)
	if n == 0 {
		return nil
	}
	runs := make([]vm.PageRun, n)
	for i := range runs {
		runs[i].Index = r.U64()
		runs[i].Count = int(r.U32())
		runs[i].Data = r.Bytes()
	}
	return runs
}

// writeRuns writes a run list: its count, then each run's index, page
// count and data.
func writeRuns(w *Encoder, runs []vm.PageRun) {
	w.U32(uint32(len(runs)))
	for _, run := range runs {
		w.U64(run.Index)
		w.U32(uint32(run.Count))
		w.Bytes(run.Data)
	}
}

// EncodeMessage serializes m into a fresh frame allocated once at its
// exact length: a measuring pass sizes it, and a writing pass copies
// the body and every attachment page image straight into it. The body
// is encoded through its op's registered codec; with no codec the body
// is carried out-of-band in extras (it is a simulation-internal payload
// that never reaches real bytes).
func EncodeMessage(m *ipc.Message) (frame []byte, extras []any, err error) {
	codec, coded := bodyCodec(m)
	var meas Encoder
	bodyLen, err := writeMessage(&meas, m, codec, coded, 0)
	if err != nil {
		return nil, nil, err
	}
	w := &Encoder{b: make([]byte, meas.n)}
	if _, err := writeMessage(w, m, codec, coded, bodyLen); err != nil {
		return nil, nil, err
	}
	if w.n != meas.n {
		return nil, nil, fmt.Errorf("wire: op %#x body codec wrote %d bytes, measured %d", m.Op, w.n, meas.n)
	}
	if !coded {
		w.extras = []any{m.Body}
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
// writing pass passes in the bodyLen its measuring pass returned.
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
		start := w.n
		if err := codec.Encode(w, m.Body); err != nil {
			return 0, fmt.Errorf("wire: encode op %#x body: %w", m.Op, err)
		}
		bodyLen = w.n - start
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
	// runHeaderBytes: index, count and data length of one page run.
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

// DecodeMessage reconstructs a message from a frame, consuming the
// extras its encoder produced. Decoded page runs, in attachments and
// in bodies, are capped windows onto frame rather than copies: the
// message takes ownership of the frame, which the caller must not
// reuse or modify afterwards, and is marked owned (ipc.Message.Owned)
// so its receiver may adopt the windows as page frames.
func DecodeMessage(frame []byte, extras []any) (_ *ipc.Message, err error) {
	defer untruncate(&err, "frame", len(frame))
	r := &Decoder{b: frame}
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
		codec, ok := bodyCodecs[m.Op]
		if !ok {
			return nil, fmt.Errorf("wire: frame carries op %#x body but no codec is registered", m.Op)
		}
		v, err := codec.Decode(body, extras)
		if err != nil {
			return nil, fmt.Errorf("wire: decode op %#x body: %w", m.Op, err)
		}
		m.Body = v
	} else {
		if len(extras) != 1 {
			return nil, fmt.Errorf("wire: codec-less body wants 1 extra, have %d", len(extras))
		}
		m.Body = extras[0]
	}

	if n := r.Count(attachmentBytes); n > 0 {
		m.Mem = make([]*ipc.MemAttachment, n)
		for i := range m.Mem {
			m.Mem[i] = decodeAttachment(r)
		}
	}
	if r.off != len(frame) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(frame)-r.off)
	}
	m.MarkOwned()
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
// wire crossing. Attachment page images are copied once, into the
// private frame, and the result's page runs are windows onto that
// frame, so the result shares no mutable byte state with the input
// (codec-less bodies pass by reference, documented above).
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

// FrameBytes reports the length of m's encoded frame: EncodeMessage's
// measuring pass, which copies nothing.
func FrameBytes(m *ipc.Message) (int, error) {
	codec, coded := bodyCodec(m)
	var meas Encoder
	if _, err := writeMessage(&meas, m, codec, coded, 0); err != nil {
		return 0, err
	}
	return meas.n, nil
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

// DecodeMessage is the only caller of these codecs' Decode, and its
// recovery covers a truncated body, so they read through a Decoder of
// their own rather than through Decode: a fault's request and reply
// then decode without a heap allocation.

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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
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
		Decode: func(b []byte, _ []any) (any, error) {
			r := &Decoder{b: b}
			return &imag.FlushRequest{SegID: r.U64(), MaxPages: int(r.U32())}, nil
		},
	})
}
