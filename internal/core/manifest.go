package core

import (
	"fmt"

	"accentmig/internal/ipc"
	"accentmig/internal/netmsg"
	"accentmig/internal/vm"
	"accentmig/internal/wire"
)

// The page manifest is the content-addressed store's wire protocol:
// before the RIMAS message ships, the source sends the destination one
// hash per collapsed page (OpManifest), and the destination answers
// with the subset it cannot reconstruct locally (OpManifestAck). Only
// those pages ship. Everything the destination elides it rebuilds at
// insert time from a retained recipe: zero pages from nothing,
// content-index hits from its own memory, intra-message duplicates
// from the first shipped copy, and — on a retry — pages the delivery
// ledger retained from an earlier failed attempt. Hashes for
// attachments the transport
// will absorb as IOUs ride along too — not to elide bytes (none ship),
// but to seed fault-time hints so later faults can be served from the
// local index or the nearest holder instead of the origin backer.

// IPC operation codes (continuing the 0x2xxx migration block).
const (
	// OpManifest carries the page-hash manifest (Body: *ManifestBody).
	OpManifest = 0x2007
	// OpManifestAck answers with needed-page bitmaps (Body:
	// *ManifestAckBody).
	OpManifestAck = 0x2008
)

// ManifestAtt lists one RIMAS attachment's page hashes in dense page
// order. WillShip records the source's prediction of the transport's
// absorb decision: true means the pages physically ship (and are
// candidates for elision), false means they become IOUs (and the
// hashes only seed fault hints). Attachments the manifest cannot
// describe (IOUs, non-dense runs) appear with no hashes to keep
// ordinals aligned with the RIMAS attachment list.
type ManifestAtt struct {
	WillShip bool
	Hashes   []uint64
}

// ManifestBody is the OpManifest payload.
type ManifestBody struct {
	ProcName string
	Attempt  int
	Atts     []ManifestAtt
}

// Bytes prices the manifest for wire accounting: 8 bytes per page hash
// (indices are implicit in the dense ordering) plus small headers.
func (mb *ManifestBody) Bytes() int {
	n := 32
	for _, a := range mb.Atts {
		n += 16 + 8*len(a.Hashes)
	}
	return n
}

// ManifestAckBody is the OpManifestAck payload: one needed-page bitmap
// per manifest attachment (bit set = page must ship), nil for
// attachments that will not ship.
type ManifestAckBody struct {
	ProcName string
	Attempt  int
	Needed   [][]byte
}

// Bytes prices the ack: one bit per page plus small headers.
func (ab *ManifestAckBody) Bytes() int {
	n := 32
	for _, bm := range ab.Needed {
		n += 16 + len(bm)
	}
	return n
}

// denseFromZero reports whether the attachment's runs number its pages
// densely from zero, each run starting where the last one ended — the
// shape every collapsed RIMAS attachment has, and the shape the
// manifest's implicit page ordinals rely on.
func denseFromZero(a *ipc.MemAttachment) bool {
	next := uint64(0)
	for _, r := range a.Runs {
		if r.Index != next {
			return false
		}
		next += uint64(r.Count)
	}
	return len(a.Runs) > 0
}

// buildManifest hashes every describable data attachment of the RIMAS
// message and predicts, per attachment, whether the transport will
// physically ship it. It returns the manifest and the total page count
// hashed (zero means the exchange is pointless and should be skipped).
// The manifest shares each attachment's cached page names
// (MemAttachment.PageHashes), so the integrity stamp and the
// transport's IOU-cache indexing read them instead of hashing again.
func buildManifest(procName string, attempt int, rimas *ipc.Message, net netmsg.Config, ps int) (*ManifestBody, int) {
	mb := &ManifestBody{ProcName: procName, Attempt: attempt}
	pages := 0
	for _, a := range rimas.Mem {
		ma := ManifestAtt{}
		if a.Kind == ipc.AttachData && a.PageCount() > 0 && denseFromZero(a) {
			ma.WillShip = !net.WillAbsorb(a.Copy, rimas.NoIOUs, a.PageCount())
			ma.Hashes = a.PageHashes(ps)
			pages += len(ma.Hashes)
		}
		mb.Atts = append(mb.Atts, ma)
	}
	return mb, pages
}

// Recipe actions: how the destination obtains each page of a manifest
// attachment at insert time.
const (
	// actShip: the page arrives in the (elided) RIMAS runs.
	actShip uint8 = iota
	// actZero: all-zero page, reborn from nothing.
	actZero
	// actLocal: identical content already resident at the destination;
	// the classified bytes were captured from the content index.
	actLocal
	// actTwin: duplicate of an earlier shipped page in this same
	// migration; copied from the twin once it is materialized.
	actTwin
	// actHint: the page rides an IOU; the hash seeds a fault-time hint.
	actHint
	// actResume: the page's content already crossed the wire during an
	// earlier failed attempt and was retained in the delivery ledger;
	// the classified bytes were captured from it.
	actResume
)

type recipeAct struct {
	kind    uint8
	hash    uint64
	data    []byte // actLocal: page bytes captured at classification
	twinAtt int    // actTwin: ordinal of the attachment holding the twin
	twinIdx int    // actTwin: page index of the twin within it
}

type recipeAtt struct {
	willShip bool
	acts     []recipeAct
}

// dedupRecipe is the destination's retained side of one manifest
// exchange: everything insertProcess needs to rebuild the pages the
// source was told not to send.
type dedupRecipe struct {
	attempt int
	atts    []recipeAtt
}

// classifyManifest decides, page by page, what the destination can
// reconstruct without the wire. index may be nil (store disabled at
// the destination): zero pages and intra-message duplicates still
// elide. led may be nil (resume disabled): a retry's retained pages
// then reship like any others. Local-hit bytes are copied out of the
// index immediately, into a full page that insert time adopts as the
// page's frame — the underlying frames may be recycled before then;
// ledger bytes are already stable copies, which the ledger keeps.
func classifyManifest(mb *ManifestBody, index *vm.ContentIndex, led *vm.DeliveryLedger, ps int) (*dedupRecipe, *ManifestAckBody) {
	rcp := &dedupRecipe{attempt: mb.Attempt, atts: make([]recipeAtt, 0, len(mb.Atts))}
	ack := &ManifestAckBody{ProcName: mb.ProcName, Attempt: mb.Attempt, Needed: make([][]byte, 0, len(mb.Atts))}
	type src struct{ att, idx int }
	seen := make(map[uint64]src)
	for ai, att := range mb.Atts {
		ra := recipeAtt{willShip: att.WillShip, acts: make([]recipeAct, 0, len(att.Hashes))}
		var bitmap []byte
		if att.WillShip && len(att.Hashes) > 0 {
			bitmap = make([]byte, (len(att.Hashes)+7)/8)
		}
		for i, h := range att.Hashes {
			if !att.WillShip {
				ra.acts = append(ra.acts, recipeAct{kind: actHint, hash: h})
				continue
			}
			switch {
			case h == vm.ZeroHash:
				ra.acts = append(ra.acts, recipeAct{kind: actZero})
			default:
				if data, ok := index.Lookup(h); ok {
					cp := make([]byte, ps)
					copy(cp, data)
					ra.acts = append(ra.acts, recipeAct{kind: actLocal, hash: h, data: cp})
				} else if data := led.Lookup(mb.ProcName, h, ps); data != nil {
					ra.acts = append(ra.acts, recipeAct{kind: actResume, hash: h, data: data})
				} else if t, dup := seen[h]; dup {
					ra.acts = append(ra.acts, recipeAct{kind: actTwin, hash: h, twinAtt: t.att, twinIdx: t.idx})
				} else {
					seen[h] = src{ai, i}
					bitmap[i>>3] |= 1 << (i & 7)
					ra.acts = append(ra.acts, recipeAct{kind: actShip, hash: h})
				}
			}
		}
		rcp.atts = append(rcp.atts, ra)
		ack.Needed = append(ack.Needed, bitmap)
	}
	return rcp, ack
}

// elideAttachment returns a copy of a keeping only the pages whose bit
// is set in needed; a's runs must number its pages densely from zero
// (denseFromZero). Kept pages of one run that stay contiguous are
// grouped back into one run. Run data slices alias the original
// images — nothing is copied, and the original attachment (held by the
// rollback snapshot) is untouched. The copy carries the cached names of
// the pages it keeps.
func elideAttachment(a *ipc.MemAttachment, needed []byte, ps int) (*ipc.MemAttachment, int) {
	na := *a
	na.Runs = nil
	names := a.PageHashes(ps) // computed by buildManifest
	kept := make([]uint64, 0, len(names))
	elided := 0
	for _, run := range a.Runs {
		grow := false // the last kept run lies in this run and ends just before page j
		for i := 0; i < run.Count; i++ {
			j := int(run.Index) + i
			if needed[j>>3]&(1<<(j&7)) == 0 {
				elided++
				grow = false
				continue
			}
			kept = append(kept, names[j])
			hi := min((i+1)*ps, len(run.Data))
			if grow {
				last := &na.Runs[len(na.Runs)-1]
				last.Count++
				last.Data = run.Data[int(last.Index-run.Index)*ps : hi]
			} else {
				na.Runs = append(na.Runs, vm.PageRun{Index: uint64(j), Count: 1, Data: run.Data[i*ps : hi]})
				grow = true
			}
		}
	}
	na.SetPageHashes(kept, ps)
	return &na, elided
}

// compressAttachment runs the modeled compressor over the attachment's
// remaining pages, stamping CompBytes when the model actually wins.
// It returns the page count compressed (the CPU cost is paid per page
// attempted, win or lose).
func compressAttachment(a *ipc.MemAttachment, ps int) int {
	comp, pages := 0, 0
	for _, run := range a.Runs {
		for j := 0; j < run.Count; j++ {
			comp += vm.ModelCompressedSize(run.Page(j, ps), ps)
			pages++
		}
	}
	if pages > 0 && comp < a.DataBytes() {
		a.CompBytes = comp
	}
	return pages
}

func init() {
	wire.RegisterBody(OpManifest, wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			mb, ok := v.(*ManifestBody)
			if !ok {
				return fmt.Errorf("want *ManifestBody, got %T", v)
			}
			w.Str(mb.ProcName)
			w.I64(int64(mb.Attempt))
			w.U32(uint32(len(mb.Atts)))
			for _, a := range mb.Atts {
				w.Bool(a.WillShip)
				w.U32(uint32(len(a.Hashes)))
				for _, h := range a.Hashes {
					w.U64(h)
				}
			}
			return nil
		},
		Decode: func(r *wire.Decoder) (any, error) {
			mb := &ManifestBody{ProcName: r.Str(), Attempt: int(r.I64())}
			if n := r.Count(1 + 4); n > 0 {
				mb.Atts = make([]ManifestAtt, n)
				for i := range mb.Atts {
					a := &mb.Atts[i]
					a.WillShip = r.Bool()
					if np := r.Count(8); np > 0 {
						a.Hashes = make([]uint64, np)
						for j := range a.Hashes {
							a.Hashes[j] = r.U64()
						}
					}
				}
			}
			return mb, nil
		},
	})

	wire.RegisterBody(OpManifestAck, wire.BodyCodec{
		Encode: func(w *wire.Encoder, v any) error {
			ab, ok := v.(*ManifestAckBody)
			if !ok {
				return fmt.Errorf("want *ManifestAckBody, got %T", v)
			}
			w.Str(ab.ProcName)
			w.I64(int64(ab.Attempt))
			w.U32(uint32(len(ab.Needed)))
			for _, bm := range ab.Needed {
				w.Bytes(bm)
			}
			return nil
		},
		Decode: func(r *wire.Decoder) (any, error) {
			ab := &ManifestAckBody{ProcName: r.Str(), Attempt: int(r.I64())}
			if n := r.Count(4); n > 0 {
				ab.Needed = make([][]byte, n)
				for i := range ab.Needed {
					if bm := r.Bytes(); len(bm) > 0 {
						ab.Needed[i] = bm
					}
				}
			}
			return ab, nil
		},
	})
}
