// Package wire serializes IPC messages to bytes and back, so that
// everything a NetMsgServer forwards is provably self-contained — the
// §3.1 property that context messages "do not have to be preprocessed
// in any way". The simulator could pass Go pointers between machines;
// instead, every wire crossing encodes to a frame and decodes it at
// the peer, making accidental cross-machine sharing impossible and
// catching any forgotten field the moment a test round-trips it.
//
// The frame is the crossing's one fresh copy: EncodeMessage allocates
// it once at its exact length and copies every page image into it, and
// DecodeMessage hands out page runs as capped windows onto it (an
// append reallocates instead of spilling into the next run). A decoded
// message therefore owns its frame; a caller must not reuse a frame
// after decoding it.
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

// BodyCodec encodes and decodes one op's body type. Extras carry
// opaque references that cannot be byte-encoded (bodies of nested
// pending mail without codecs); they ride alongside the frame and must
// be consumed in order by Decode. Most codecs ignore them.
type BodyCodec struct {
	Encode func(v any) (frame []byte, extras []any, err error)
	Decode func(frame []byte, extras []any) (v any, err error)
}

var bodyCodecs = map[int]BodyCodec{}

// RegisterBody installs the codec for an op. Later registrations for
// the same op win, which lets tests stub protocols.
func RegisterBody(op int, c BodyCodec) { bodyCodecs[op] = c }

// buf is a tiny append-only encoder.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *buf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buf) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *buf) i64(v int64)  { w.u64(uint64(v)) }
func (w *buf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *buf) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.b = append(w.b, v...)
}
func (w *buf) str(v string) { w.bytes([]byte(v)) }

// rdr is the matching decoder; it panics with errTruncated via helpers
// and the public functions recover it into an error.
type rdr struct {
	b   []byte
	off int
}

type truncated struct{}

// need consumes the next n bytes and returns them as a window capped
// at its own length. The bounds check comes before anything is sized
// from n, so a corrupt length cannot make the decoder allocate.
func (r *rdr) need(n int) []byte {
	if n < 0 || n > len(r.b)-r.off {
		panic(truncated{})
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}
func (r *rdr) u8() uint8     { return r.need(1)[0] }
func (r *rdr) u32() uint32   { return binary.BigEndian.Uint32(r.need(4)) }
func (r *rdr) u64() uint64   { return binary.BigEndian.Uint64(r.need(8)) }
func (r *rdr) i64() int64    { return int64(r.u64()) }
func (r *rdr) bool() bool    { return r.u8() != 0 }
func (r *rdr) bytes() []byte { return r.need(int(r.u32())) }
func (r *rdr) str() string   { return string(r.bytes()) }

// EncodeMessage serializes m into a fresh frame allocated once at its
// exact length, copying all attachment data into it. The body is
// encoded through its op's registered codec; with no codec the body is
// carried out-of-band in extras (it is a simulation-internal payload
// that never reaches real bytes).
func EncodeMessage(m *ipc.Message) (frame []byte, extras []any, err error) {
	body, coded, extras, err := encodeBody(m)
	if err != nil {
		return nil, nil, err
	}
	w := &buf{b: make([]byte, 0, frameLen(m, body, coded))}
	w.i64(int64(m.Op))
	w.u64(uint64(m.To))
	w.u64(uint64(m.ReplyTo))
	w.u32(uint32(m.BodyBytes))
	w.bool(m.NoIOUs)
	w.bool(m.FaultSupport)
	w.bool(coded)
	if coded {
		w.bytes(body)
	}
	w.u32(uint32(len(m.Mem)))
	for _, a := range m.Mem {
		encodeAttachment(w, a)
	}
	return w.b, extras, nil
}

// encodeBody runs m's body codec. coded reports whether the body
// travels in the frame; otherwise it rides in extras by reference.
func encodeBody(m *ipc.Message) (body []byte, coded bool, extras []any, err error) {
	codec, ok := bodyCodecs[m.Op]
	if !ok || m.Body == nil {
		return nil, false, []any{m.Body}, nil
	}
	body, extras, err = codec.Encode(m.Body)
	if err != nil {
		return nil, false, nil, fmt.Errorf("wire: encode op %#x body: %w", m.Op, err)
	}
	return body, true, extras, nil
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

// frameLen is the length EncodeMessage gives m's frame, given the body
// its codec produced.
func frameLen(m *ipc.Message, body []byte, coded bool) int {
	n := envelopeBytes
	if coded {
		n += 4 + len(body)
	}
	for _, a := range m.Mem {
		n += attachmentBytes + 8*len(a.Sums) + len(a.Runs)*runHeaderBytes + a.DataBytes()
	}
	return n
}

func encodeAttachment(w *buf, a *ipc.MemAttachment) {
	w.u8(uint8(a.Kind))
	w.u64(uint64(a.VA))
	w.u64(a.Size)
	w.bool(a.Collapsed)
	w.bool(a.Resident)
	w.bool(a.Copy)
	w.u64(a.SegID)
	w.u64(a.SegOff)
	w.u64(a.SegSize)
	w.u64(uint64(a.Backing))
	w.u32(uint32(a.CompBytes))
	w.u32(uint32(len(a.Sums)))
	for _, s := range a.Sums {
		w.u64(s)
	}
	w.u32(uint32(len(a.Runs)))
	for _, run := range a.Runs {
		w.u64(run.Index)
		w.u32(uint32(run.Count))
		w.bytes(run.Data)
	}
}

// DecodeMessage reconstructs a message from a frame, consuming the
// extras its encoder produced. Decoded page runs, in attachments and
// in bodies, are capped windows onto frame rather than copies: the
// message takes ownership of the frame, which the caller must not
// reuse or modify afterwards.
func DecodeMessage(frame []byte, extras []any) (m *ipc.Message, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(truncated); ok {
				m, err = nil, fmt.Errorf("wire: truncated frame (%d bytes)", len(frame))
				return
			}
			panic(rec)
		}
	}()
	r := &rdr{b: frame}
	m = &ipc.Message{
		Op:      int(r.i64()),
		To:      ipc.PortID(r.u64()),
		ReplyTo: ipc.PortID(r.u64()),
	}
	m.BodyBytes = int(r.u32())
	m.NoIOUs = r.bool()
	m.FaultSupport = r.bool()

	if r.u8() == 1 {
		body := r.bytes()
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

	n := int(r.u32())
	for i := 0; i < n; i++ {
		m.Mem = append(m.Mem, decodeAttachment(r))
	}
	if r.off != len(frame) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(frame)-r.off)
	}
	return m, nil
}

func decodeAttachment(r *rdr) *ipc.MemAttachment {
	a := &ipc.MemAttachment{
		Kind:      ipc.AttachKind(r.u8()),
		VA:        vm.Addr(r.u64()),
		Size:      r.u64(),
		Collapsed: r.bool(),
		Resident:  r.bool(),
		Copy:      r.bool(),
		SegID:     r.u64(),
		SegOff:    r.u64(),
		SegSize:   r.u64(),
		Backing:   ipc.PortID(r.u64()),
	}
	a.CompBytes = int(r.u32())
	if n := int(r.u32()); n > 0 {
		if n > (len(r.b)-r.off)/8 {
			panic(truncated{})
		}
		a.Sums = make([]uint64, n)
		for i := range a.Sums {
			a.Sums[i] = r.u64()
		}
	}
	n := int(r.u32())
	for i := 0; i < n; i++ {
		idx := r.u64()
		count := int(r.u32())
		a.Runs = append(a.Runs, vm.PageRun{Index: idx, Count: count, Data: r.bytes()})
	}
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

// FrameBytes reports the length of m's encoded frame. It runs only
// the body codec; attachments are measured, not encoded.
func FrameBytes(m *ipc.Message) (int, error) {
	body, coded, _, err := encodeBody(m)
	if err != nil {
		return 0, err
	}
	return frameLen(m, body, coded), nil
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
		Encode: func(v any) ([]byte, []any, error) {
			rq, ok := v.(*imag.ReadRequest)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.ReadRequest, got %T", v)
			}
			w := &buf{}
			w.u64(rq.SegID)
			w.u64(rq.PageIdx)
			w.i64(int64(rq.Prefetch))
			w.u64(rq.StreamTo)
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			return &imag.ReadRequest{
				SegID:    r.u64(),
				PageIdx:  r.u64(),
				Prefetch: int(r.i64()),
				StreamTo: r.u64(),
			}, nil
		},
	})
	replyCodec := BodyCodec{
		Encode: func(v any) ([]byte, []any, error) {
			rp, ok := v.(*imag.ReadReply)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.ReadReply, got %T", v)
			}
			w := &buf{}
			w.u64(rp.SegID)
			w.bool(rp.Streaming)
			w.u32(uint32(len(rp.Runs)))
			for _, run := range rp.Runs {
				w.u64(run.Index)
				w.u32(uint32(run.Count))
				w.bytes(run.Data)
			}
			// StreamRuns are index/count pairs only — the promised pages'
			// data travels in the background replies that follow.
			w.u32(uint32(len(rp.StreamRuns)))
			for _, run := range rp.StreamRuns {
				w.u64(run.Index)
				w.u32(uint32(run.Count))
			}
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			rp := &imag.ReadReply{SegID: r.u64(), Streaming: r.bool()}
			n := int(r.u32())
			for i := 0; i < n; i++ {
				idx := r.u64()
				count := int(r.u32())
				rp.Runs = append(rp.Runs, vm.PageRun{Index: idx, Count: count, Data: r.bytes()})
			}
			n = int(r.u32())
			for i := 0; i < n; i++ {
				idx := r.u64()
				count := int(r.u32())
				rp.StreamRuns = append(rp.StreamRuns, vm.PageRun{Index: idx, Count: count})
			}
			return rp, nil
		},
	}
	RegisterBody(imag.OpReadReply, replyCodec)
	RegisterBody(imag.OpFlushReply, replyCodec)
	RegisterBody(imag.OpSegmentDeath, BodyCodec{
		Encode: func(v any) ([]byte, []any, error) {
			d, ok := v.(*imag.SegmentDeath)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.SegmentDeath, got %T", v)
			}
			w := &buf{}
			w.u64(d.SegID)
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			return &imag.SegmentDeath{SegID: r.u64()}, nil
		},
	})
	RegisterBody(imag.OpReadError, BodyCodec{
		Encode: func(v any) ([]byte, []any, error) {
			e, ok := v.(*imag.ReadError)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.ReadError, got %T", v)
			}
			w := &buf{}
			w.u64(e.SegID)
			w.u64(e.PageIdx)
			w.str(e.Reason)
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			return &imag.ReadError{
				SegID:   r.u64(),
				PageIdx: r.u64(),
				Reason:  r.str(),
			}, nil
		},
	})
	RegisterBody(imag.OpHashRead, BodyCodec{
		Encode: func(v any) ([]byte, []any, error) {
			h, ok := v.(*imag.HashRead)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.HashRead, got %T", v)
			}
			w := &buf{}
			w.u64(h.Hash)
			w.u64(h.SegID)
			w.u64(h.Page)
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			return &imag.HashRead{Hash: r.u64(), SegID: r.u64(), Page: r.u64()}, nil
		},
	})
	RegisterBody(imag.OpFlush, BodyCodec{
		Encode: func(v any) ([]byte, []any, error) {
			f, ok := v.(*imag.FlushRequest)
			if !ok {
				return nil, nil, fmt.Errorf("want *imag.FlushRequest, got %T", v)
			}
			w := &buf{}
			w.u64(f.SegID)
			w.u32(uint32(f.MaxPages))
			return w.b, nil, nil
		},
		Decode: func(b []byte, _ []any) (any, error) {
			r := &rdr{b: b}
			return &imag.FlushRequest{SegID: r.u64(), MaxPages: int(r.u32())}, nil
		},
	})
}
