// Command migreport regenerates the measured side of EXPERIMENTS.md:
// it runs every experiment and emits a Markdown report with paper
// values alongside the simulator's measurements. Each fenced block is
// what an entry of experiments.Experiments renders, the bytes `migsim
// -exp <id>` prints; the paper-vs-measured tables of 4-3 to 4-5, the
// migration timelines and the per-lane shard table are the report's
// own.
//
// Usage:
//
//	migreport > EXPERIMENTS.md
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/experiments"
	"accentmig/internal/workload"
)

func main() {
	if err := report(); err != nil {
		fmt.Fprintln(os.Stderr, "migreport:", err)
		os.Exit(1)
	}
}

func report() error {
	start := time.Now()
	p := experiments.Params{Kinds: workload.Kinds(), ChaosTrials: 64}

	fmt.Println("# EXPERIMENTS — paper vs. measured")
	fmt.Println()
	fmt.Println("Regenerated by `go run ./cmd/migreport`. All \"measured\" numbers come")
	fmt.Println("from the deterministic simulation with default (calibrated) tuning;")
	fmt.Println("see DESIGN.md §3 for the calibration anchors and EXPERIMENTS notes")
	fmt.Println("below each item for how to read the comparison.")
	fmt.Println()
	fmt.Println("Reruns can skip re-simulating unchanged cells: `migsim -memo-cache`")
	fmt.Println("persists every trial result in a checksummed disk cache (default")
	fmt.Println("`.migcache/`, override with `-memo-cache-dir`), keyed by config")
	fmt.Println("fingerprint and trial coordinates, so a warm `-exp all` is served")
	fmt.Println("from disk with byte-identical output. See docs/PERFORMANCE.md for")
	fmt.Println("the key derivation, epoch invalidation, and prune policy.")
	fmt.Println()

	// Table 4-1 / 4-2: exact by construction.
	fmt.Println("## Table 4-1 — address space composition")
	fmt.Println()
	fmt.Println("The paper's numbers, printed as the workload characterization")
	fmt.Println("inputs they are: `workload.Build` checks every install's Real,")
	fmt.Println("RealZ and Total (and its Table 4-2 resident set) against them, so")
	fmt.Println("every trial verifies the builders and the usage scan.")
	fmt.Println()
	if err := fence(p, "table4-1"); err != nil {
		return err
	}

	fmt.Println("## Table 4-2 — resident sets")
	fmt.Println()
	if err := fence(p, "table4-2"); err != nil {
		return err
	}

	r43, err := experiments.Table43(p.Config, p.Kinds)
	if err != nil {
		return err
	}
	fmt.Println("## Table 4-3 — percent of address space accessed")
	fmt.Println()
	fmt.Println("| workload | paper IOU %Real | measured IOU %Real | measured RS %Real |")
	fmt.Println("|---|---|---|---|")
	for _, r := range r43 {
		fmt.Printf("| %s | %.1f | %.1f | %.1f |\n", r.Kind, workload.PaperTable43IOU[r.Kind], r.IOUReal, r.RSReal)
	}
	fmt.Println()

	r44, err := experiments.Table44For(p.Config, p.Kinds)
	if err != nil {
		return err
	}
	fmt.Println("## Table 4-4 — excision times (s)")
	fmt.Println()
	fmt.Println("The downtime column is this reproduction's addition: the frozen")
	fmt.Println("interval of a full pure-copy migration, excise-freeze to the first")
	fmt.Println("instruction executed at the destination.")
	fmt.Println()
	fmt.Println("| workload | paper AMap | measured | paper RIMAS | measured | paper overall | measured | downtime |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, r := range r44 {
		p := workload.PaperTable44Rows[r.Kind]
		fmt.Printf("| %s | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f | %.2f |\n",
			r.Kind, p.AMap, r.AMap.Seconds(), p.RIMAS, r.RIMAS.Seconds(), p.Overall, r.Overall.Seconds(), r.Down.Seconds())
	}
	fmt.Println()

	r45, err := experiments.Table45(p.Config, p.Kinds)
	if err != nil {
		return err
	}
	fmt.Println("## Table 4-5 — address space transfer times (s)")
	fmt.Println()
	fmt.Println("| workload | paper IOU | measured | paper RS | measured | paper Copy | measured |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, r := range r45 {
		p := workload.PaperTable45Rows[r.Kind]
		fmt.Printf("| %s | %.2f | %.2f | %.1f | %.1f | %.1f | %.1f |\n",
			r.Kind, p.IOU, r.IOU.Seconds(), p.RS, r.RS.Seconds(), p.Copy, r.Copy.Seconds())
	}
	fmt.Println()

	for _, f := range []struct{ id, title string }{
		{"figure4-1", "Figure 4-1 — remote execution times (s)"},
		{"figure4-2", "Figure 4-2 — overall speedup over pure-copy (%)"},
		{"figure4-3", "Figure 4-3 — bytes transferred"},
		{"figure4-4", "Figure 4-4 — message handling time (s)"},
		{"figure4-5", "Figure 4-5 — byte transfer rates, Lisp-Del"},
		{"summary", "§4.5 summary"},
	} {
		fmt.Printf("## %s\n\n", f.title)
		if err := fence(p, f.id); err != nil {
			return err
		}
	}

	fmt.Println("## Migration timeline (flight recorder)")
	fmt.Println()
	fmt.Println("One traced Lisp-Del migration per lazy strategy: phase spans from")
	fmt.Println("the source manager's recorder, the critical-path split of end-to-end")
	fmt.Println("latency, and fault-resolution latency quantiles from the log-bucketed")
	fmt.Println("histograms. The same stream exports to Perfetto via")
	fmt.Println("`migsim -trace out.json -trace-format chrome`.")
	fmt.Println()
	for _, strat := range []core.Strategy{core.PureIOU, core.ResidentSet} {
		tr, sink, err := experiments.TraceTrial(p.Config, workload.LispDel, strat, 0)
		if err != nil {
			return err
		}
		fmt.Println("```")
		fmt.Print(experiments.FormatTimeline(workload.LispDel, strat, tr, sink))
		fmt.Println("```")
		fmt.Println()
	}

	fmt.Println("## Bottleneck and downtime (causal profiler)")
	fmt.Println()
	fmt.Println("Each migration re-run flight-recorded and rebuilt by `internal/prof`")
	fmt.Println("as a span DAG: message sends happen-before receives, fault parks")
	fmt.Println("happen-before their resolving replies, phase begins happen-before")
	fmt.Println("ends. The frozen interval (excise-freeze → insertion-complete) is")
	fmt.Println("partitioned exactly into per-resource blame — wire, destination CPU,")
	fmt.Println("source CPU, disk, queue wait, other — so each row sums to 100%.")
	fmt.Println("Downtime extends the interval to the first instruction the process")
	fmt.Println("executes at the destination. Reproduce any row with")
	fmt.Println("`migsim -exp profile -kinds <workload>`; see docs/OBSERVABILITY.md for")
	fmt.Println("the DAG model and attribution rules.")
	fmt.Println()
	if err := fence(p, "bottleneck"); err != nil {
		return err
	}

	for _, f := range []struct{ id, title string }{
		{"ablations", "Ablations"},
		{"precopy", "Extension: iterative pre-copy (V-system, related work §5)"},
		{"breakeven", "Extension: breakeven sweep (§4.3.4's ≈¼-of-RealMem crossover)"},
		{"bystander", "Extension: cost distribution — bystander interference (§4.4.3)"},
		{"hops", "Extension: backer-distance penalty (re-migration hops)"},
	} {
		fmt.Printf("## %s\n\n", f.title)
		if err := fence(p, f.id); err != nil {
			return err
		}
	}

	fmt.Println("## Extension: pipelined transport and windowed IOU streaming")
	fmt.Println()
	fmt.Println("The paper's transport is stop-and-wait: one fragment on the wire,")
	fmt.Println("one ack back. The `-window` knob keeps W fragments in flight with")
	fmt.Println("cumulative/selective acks, and `-outstanding` lets the pager split")
	fmt.Println("fault replies so prefetch runs stream behind the demand page at")
	fmt.Println("background priority. W=1 (and K=1) is bit-identical to the paper-")
	fmt.Println("faithful path; every other cell is the measured win. See")
	fmt.Println("docs/ARCHITECTURE.md (transport) and docs/PERFORMANCE.md.")
	fmt.Println()
	if err := fence(p, "pipeline"); err != nil {
		return err
	}

	fmt.Println("## Extension: content-addressed page store (dedup, compression, nearest holder)")
	fmt.Println()
	fmt.Println("Pages are named by a 64-bit content hash. Before the RIMAS message")
	fmt.Println("ships, the source sends a hash manifest and the destination answers")
	fmt.Println("with the subset it cannot rebuild from zero pages, its own content")
	fmt.Println("index, or earlier pages of the same message — only those ship. The")
	fmt.Println("`-compress` knob adds a modeled compressor over whatever remains,")
	fmt.Println("and IOU hashes seed fault-time hints so faults resolve against the")
	fmt.Println("local index or the nearest holding machine before the origin backer.")
	fmt.Println("The off column is bit-identical to the paper-faithful path; savings")
	fmt.Println("are net of the manifest round trip. Reproduce with `migsim -exp")
	fmt.Println("dedup` (or any experiment with `-dedup`/`-compress`); see")
	fmt.Println("docs/ARCHITECTURE.md (content-addressed store) and")
	fmt.Println("docs/PERFORMANCE.md.")
	fmt.Println()
	if err := fence(p, "dedup"); err != nil {
		return err
	}

	fmt.Println("## Extension: resilience under injected faults")
	fmt.Println()
	fmt.Println("Migrations on a lossy or partitioned link, with the reliable")
	fmt.Println("control plane (per-fragment ack/retransmit with exponential backoff)")
	fmt.Println("and migration recovery (per-phase deadlines, abort with source-side")
	fmt.Println("rollback, retry with strategy degradation) active. See")
	fmt.Println("docs/RESILIENCE.md for how to read the table and replicate single")
	fmt.Println("scenarios with `migsim -faults`.")
	fmt.Println()
	if err := fence(p, "resilience"); err != nil {
		return err
	}

	fmt.Println("## Extension: chaos and resume")
	fmt.Println()
	fmt.Println("A seed-deterministic chaos campaign: each trial draws a random")
	fmt.Println("strategy, transport window, dedup/resume/integrity mode, and fault")
	fmt.Println("plan (loss, bursts, partitions, in-flight corruption), runs the")
	fmt.Println("migration, and checks invariants against a fault-free golden of the")
	fmt.Println("same scenario — image identity on arrival, no orphaned IOUs, no")
	fmt.Println("leaked frames, downtime within bounds and never under the golden's,")
	fmt.Println("blame fractions summing to 1 on a profiled subset. Any violation is")
	fmt.Println("shrunk to a minimal reproducing fault plan. Retries resume from the")
	fmt.Println("destination's delivery ledger (attempt N+1 ships only what attempt N")
	fmt.Println("failed to deliver) and corrupt pages are caught by per-page")
	fmt.Println("checksums at install and re-fetched by hash. Reproduce with `migsim")
	fmt.Println("-exp chaos -chaos-trials N`; what the ledger saves a retried 1 MB")
	fmt.Println("transfer is pinned by `TestTransfer1MBPinned`. See docs/RESILIENCE.md.")
	fmt.Println()
	if err := fence(p, "chaos"); err != nil {
		return err
	}

	fmt.Println("## Extension: sharded parallel kernel (shard-stress scenario)")
	fmt.Println()
	fmt.Println("The event kernel optionally shards into per-machine lanes run by a")
	fmt.Println("worker pool under conservative lookahead windows (lookahead = the")
	fmt.Println("minimum cross-machine link latency; cross-lane events merge at")
	fmt.Println("window barriers in (time, shard, sequence) order). The scenario is a")
	fmt.Println("many-machine migration stress — arrivals plus concurrent migrations")
	fmt.Println("contending for links and backers — and the sharded result is")
	fmt.Println("verified byte-identical to the sequential kernel at every worker")
	fmt.Println("count. Everything below is deterministic: the event, window and")
	fmt.Println("cross-event counts as much as the per-lane table. Reproduce with")
	fmt.Println("`migsim -exp shardstress -shards N`. Host timings (wall clock,")
	fmt.Println("time per event, barrier stall) are the benchmark's: the bench/ workload")
	fmt.Println("cluster-32 measures them with spread at 1 and 2 lanes, and `make bench`")
	fmt.Println("checks the speedup at 4 and 8 lanes.")
	fmt.Println("See docs/PERFORMANCE.md (sharded kernel) and docs/ARCHITECTURE.md.")
	fmt.Println()
	// The shardstress entry's text, then the per-lane table of the
	// sequential run it simulated.
	ss, seq, err := experiments.ShardStress(p.Shards)
	if err != nil {
		return err
	}
	printFence(ss)
	printFence(experiments.FormatShardLanes(experiments.ShardStressOptions{}, seq))

	fmt.Printf("_Generated in %s of wall time; the simulation itself is deterministic._\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}

// fence prints what experiment id renders from p as one fenced block.
func fence(p experiments.Params, id string) error {
	e, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("no experiment %q", id)
	}
	out, err := e.Render(p)
	if err != nil {
		return err
	}
	printFence(out)
	return nil
}

// printFence prints out as one fenced block.
func printFence(out string) {
	fmt.Printf("```\n%s\n```\n\n", strings.TrimRight(out, "\n"))
}
