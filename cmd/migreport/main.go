// Command migreport regenerates the measured side of EXPERIMENTS.md:
// it runs every experiment and emits a Markdown report with paper
// values alongside the simulator's measurements.
//
// Usage:
//
//	migreport > EXPERIMENTS.md
package main

import (
	"fmt"
	"os"
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
	cfg := experiments.Config{}
	kinds := workload.Kinds()

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
	r41, err := experiments.Table41(cfg)
	if err != nil {
		return err
	}
	fmt.Println("## Table 4-1 — address space composition")
	fmt.Println()
	fmt.Println("Byte-for-byte identical to the paper (the compositions are the")
	fmt.Println("workload characterization inputs; this verifies the builders and the")
	fmt.Println("AMap/Usage scan machinery).")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatTable41(r41))
	fmt.Println("```")
	fmt.Println()

	r42, err := experiments.Table42(cfg)
	if err != nil {
		return err
	}
	fmt.Println("## Table 4-2 — resident sets")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatTable42(r42))
	fmt.Println("```")
	fmt.Println()

	r43, err := experiments.Table43(cfg, kinds)
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

	r44, err := experiments.Table44(cfg)
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

	r45, err := experiments.Table45(cfg, kinds)
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

	g, err := experiments.RunGrid(cfg, kinds)
	if err != nil {
		return err
	}
	fmt.Println("## Figure 4-1 — remote execution times (s)")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatFigure("Figure 4-1", "s", experiments.Figure41(g, kinds), kinds))
	fmt.Println("```")
	fmt.Println()
	fmt.Println("## Figure 4-2 — overall speedup over pure-copy (%)")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatFigure("Figure 4-2", "%", experiments.Figure42(g, kinds), kinds))
	fmt.Println("```")
	fmt.Println()
	fmt.Println("## Figure 4-3 — bytes transferred")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatFigure("Figure 4-3", "B", experiments.Figure43(g, kinds), kinds))
	fmt.Println("```")
	fmt.Println()
	fmt.Println("## Figure 4-4 — message handling time (s)")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatFigure("Figure 4-4", "s", experiments.Figure44(g, kinds), kinds))
	fmt.Println("```")
	fmt.Println()

	panels, err := experiments.Figure45(cfg)
	if err != nil {
		return err
	}
	fmt.Println("## Figure 4-5 — byte transfer rates, Lisp-Del")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatFigure45(panels))
	fmt.Println("```")
	fmt.Println()

	s, err := experiments.Summarize(cfg, g, kinds)
	if err != nil {
		return err
	}
	fmt.Println("## §4.5 summary")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(experiments.FormatSummary(s))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Migration timeline (flight recorder)")
	fmt.Println()
	fmt.Println("One traced Lisp-Del migration per lazy strategy: phase spans from")
	fmt.Println("the source manager's recorder, the critical-path split of end-to-end")
	fmt.Println("latency, and fault-resolution latency quantiles from the log-bucketed")
	fmt.Println("histograms. The same stream exports to Perfetto via")
	fmt.Println("`migsim -trace out.json -trace-format chrome`.")
	fmt.Println()
	for _, strat := range []core.Strategy{core.PureIOU, core.ResidentSet} {
		tr, sink, err := experiments.TraceTrial(cfg, workload.LispDel, strat, 0)
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
	fmt.Println("`migsim -profile -kinds <workload>`; see docs/OBSERVABILITY.md for")
	fmt.Println("the DAG model and attribution rules.")
	fmt.Println()
	bn, err := experiments.Bottleneck(cfg, kinds)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatBottleneck(bn))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Ablations")
	fmt.Println()
	for _, ab := range []struct {
		title string
		run   func() ([]experiments.AblationRow, error)
	}{
		{"prefetch (synthetic sequential)", func() ([]experiments.AblationRow, error) {
			return experiments.PrefetchAblation(core.PrefetchValues())
		}},
		{"page size", func() ([]experiments.AblationRow, error) {
			return experiments.PageSizeAblation([]int{256, 512, 1024, 2048})
		}},
		{"network bandwidth (IOU vs Copy)", func() ([]experiments.AblationRow, error) {
			return experiments.BandwidthAblation([]int{375_000, 3_750_000, 37_500_000})
		}},
		{"NetMsgServer IOU cache", experiments.IOUCacheAblation},
		{"IPC copy/map threshold", func() ([]experiments.AblationRow, error) {
			return experiments.CopyThresholdAblation([]int{512, 4096, 65536, 1 << 20})
		}},
	} {
		rows, err := ab.run()
		if err != nil {
			return err
		}
		fmt.Println("```")
		fmt.Print(experiments.FormatAblation("Ablation: "+ab.title, rows))
		fmt.Println("```")
		fmt.Println()
	}

	fmt.Println("## Extension: iterative pre-copy (V-system, related work §5)")
	fmt.Println()
	pc, err := experiments.PreCopyComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatPreCopy(pc))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Extension: breakeven sweep (§4.3.4's ≈¼-of-RealMem crossover)")
	fmt.Println()
	be, err := experiments.BreakevenSweep(cfg, []int{5, 10, 15, 20, 25, 30, 40, 50, 60})
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatBreakeven(be))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Extension: cost distribution — bystander interference (§4.4.3)")
	fmt.Println()
	bys, err := experiments.BystanderImpact(cfg)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatBystander(bys))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Extension: backer-distance penalty (re-migration hops)")
	fmt.Println()
	hp, err := experiments.HopPenalty(cfg)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatHopPenalty(hp))
	fmt.Println("```")
	fmt.Println()

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
	pt, err := experiments.Pipeline(cfg, kinds)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatPipeline(pt))
	fmt.Println("```")
	fmt.Println()

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
	dt, err := experiments.Dedup(cfg, kinds)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatDedup(dt))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Extension: resilience under injected faults")
	fmt.Println()
	fmt.Println("Migrations on a lossy or partitioned link, with the reliable")
	fmt.Println("control plane (per-fragment ack/retransmit with exponential backoff)")
	fmt.Println("and migration recovery (per-phase deadlines, abort with source-side")
	fmt.Println("rollback, retry with strategy degradation) active. See")
	fmt.Println("docs/RESILIENCE.md for how to read the table and replicate single")
	fmt.Println("scenarios with `migsim -faults`.")
	fmt.Println()
	rt, err := experiments.Resilience(cfg)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatResilience(rt))
	fmt.Println("```")
	fmt.Println()

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
	ch, err := experiments.Chaos(cfg, 64, 1)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatChaos(ch))
	fmt.Println("```")
	fmt.Println()

	fmt.Println("## Extension: sharded parallel kernel (shard-stress scenario)")
	fmt.Println()
	fmt.Println("The event kernel optionally shards into per-machine lanes run by a")
	fmt.Println("worker pool under conservative lookahead windows (lookahead = the")
	fmt.Println("minimum cross-machine link latency; cross-lane events merge at")
	fmt.Println("window barriers in (time, shard, sequence) order). The scenario is a")
	fmt.Println("many-machine migration stress — arrivals plus concurrent migrations")
	fmt.Println("contending for links and backers — and the sharded result is")
	fmt.Println("verified byte-identical to the sequential kernel at every worker")
	fmt.Println("count. Events/sec and barrier stall are host-measured and vary run")
	fmt.Println("to run (on a single-core host the stall percentage mostly measures")
	fmt.Println("worker serialization, not window imbalance); the per-lane table is")
	fmt.Println("deterministic. Reproduce with `migsim -exp shardstress -shards N`;")
	fmt.Println("the 1/2/4/8-lane timing sweep is in BENCH_grid.json (`shard_sweep`).")
	fmt.Println("See docs/PERFORMANCE.md (sharded kernel) and docs/ARCHITECTURE.md.")
	fmt.Println()
	ssOut, err := experiments.ShardStress(experiments.NewEngine(1), 4)
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(ssOut)
	fmt.Println("```")
	fmt.Println()
	ssRes, _, err := experiments.RunShardStress(experiments.ShardStressOptions{})
	if err != nil {
		return err
	}
	fmt.Println("```")
	fmt.Print(experiments.FormatShardLanes(experiments.ShardStressOptions{}, ssRes))
	fmt.Println("```")
	fmt.Println()

	fmt.Printf("_Generated in %s of wall time; the simulation itself is deterministic._\n",
		time.Since(start).Round(time.Millisecond))
	return nil
}
