package core

import (
	"time"

	"accentmig/internal/ipc"
	"accentmig/internal/sim"
	"accentmig/internal/vm"
)

// End-to-end payload integrity (vm.DedupConfig.Integrity): just before
// the RIMAS message ships — after any manifest elision and modeled
// compression, so the checksums describe exactly the pages that travel
// — the source stamps one content hash per payload page onto each data
// attachment's Sums and registers the shipped bytes in its own content
// index. The destination re-hashes every installed page against Sums;
// a mismatch (wire corruption) is repaired by a targeted single-page
// hash read back to the source instead of failing the whole attempt.
// Pre-copy staging rounds are outside the protected stream: only the
// RIMAS payload carries checksums.

// stampIntegrity checksums the outgoing RIMAS payload in place of the
// message (attachment structs are copied first, so the rollback
// snapshot — which shares them — stays pristine). The checksums are
// the attachments' page names: the ones the manifest already computed
// when it ran (elision carries them over), hashed here otherwise. The
// sweep is charged one vm.HashPerPageCPU per page either way; indexing
// the shipped bytes is what lets the destination's repair read find
// them here later.
func (mgr *Manager) stampIntegrity(p *sim.Proc, ctx *Context) {
	ps := mgr.M.PageSize()
	mem := make([]*ipc.MemAttachment, len(ctx.RIMAS.Mem))
	copy(mem, ctx.RIMAS.Mem)
	pages := 0
	for i, a := range mem {
		if a.Kind != ipc.AttachData || a.PageCount() == 0 {
			continue
		}
		cp := *a
		sums := cp.PageHashes(ps)
		k := 0
		for _, run := range cp.Runs {
			for j := 0; j < run.Count; j++ {
				mgr.M.Index.Put(sums[k], run.Page(j, ps))
				k++
			}
		}
		cp.Sums = sums
		mem[i] = &cp
		pages += len(sums)
	}
	if pages == 0 {
		return
	}
	ctx.RIMAS.Mem = mem
	mgr.M.CPU.UseHigh(p, time.Duration(pages)*vm.HashPerPageCPU)
}
