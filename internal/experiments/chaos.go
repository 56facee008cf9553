// Chaos campaign: randomized, seed-deterministic fault plans thrown at
// randomized migration scenarios, with every trial checked against
// invariants that must hold no matter what the network does. A failing
// seed is automatically shrunk to a minimal fault plan (greedy
// one-element ddmin), so a red campaign run ends with a reproducer
// small enough to paste into a regression test.
//
// The invariants (see docs/RESILIENCE.md):
//
//   - the trial reaches a definite outcome: migrated or cleanly
//     aborted, and the program either runs to completion somewhere or
//     dies with a typed error class explaining why (a partition longer
//     than the dead-peer horizon is a modeled crash);
//   - a crash-free plan never zero-fills a page (no orphaned IOUs);
//   - a migrated process's final memory image is identical to the
//     fault-free golden run of the same scenario;
//   - neither machine's frame pool holds more frames than the golden
//     run — retries and rollbacks must not leak;
//   - the source store owes exactly what the golden run owes;
//   - downtime is within [golden downtime, total time] — losing frames
//     can only lengthen the frozen interval, and retry re-stamping must
//     not shorten it;
//   - on a profiled subset, the critical-path blame fractions form an
//     exact partition (sum to 1).
//
// Degradation is disabled for every chaos scenario so the faulted run
// and its golden share a strategy; ResidentSet retries are exempt from
// the image/frame/residual comparisons because a rollback legitimately
// changes which pages are resident for the next attempt.
package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"accentmig/internal/core"
	"accentmig/internal/faults"
	"accentmig/internal/prof"
	"accentmig/internal/workload"
	"accentmig/internal/xrand"
)

// chaosCase is one generated trial: a scenario (config with its
// recovery options, strategy) plus the fault plan thrown at it.
type chaosCase struct {
	name   string
	cfg    Config
	golden Config
	strat  core.Strategy
	plan   *faults.Plan
}

// ChaosViolation is one invariant failure, with the fault plan already
// shrunk to a minimal reproducer.
type ChaosViolation struct {
	Seed      uint64
	Scenario  string
	Invariant string
	Detail    string
	// Plan is the minimal fault plan that still reproduces the
	// violation; PlanJSON is its compact rendering for replay with
	// -faults.
	Plan     *faults.Plan
	PlanJSON string
}

// ChaosReport summarizes one campaign.
type ChaosReport struct {
	Kind   workload.Kind
	Trials int

	Migrated, Aborted int
	// Retried counts trials whose migration needed more than one attempt.
	Retried int
	// Profiled counts the trials re-run under the flight recorder for
	// the blame-partition invariant.
	Profiled int

	ResumedPages  int
	RepairedPages int
	CorruptPages  uint64

	Violations []*ChaosViolation
}

// chaosStrategies are the scenario strategies. PreCopied is excluded:
// it cannot roll back (the source is already gone when the handshake
// runs), so its faulted outcomes have no golden to compare against.
var chaosStrategies = []core.Strategy{core.PureCopy, core.PureIOU, core.ResidentSet}

// goldenOpts are the recovery options every golden (fault-free) trial
// runs with. A fault-free run never retries, so the faulted trial's
// randomized retry budget would only fragment the memoization cache.
var goldenOpts = ResilienceOptions{MaxRetries: 2, Degrade: false, AckTimeout: 15 * time.Minute}

// chaosScenario draws one scenario: strategy × transport window ×
// dedup/resume/integrity combination × retry budget.
func chaosScenario(rng *xrand.RNG, base Config) (Config, core.Strategy, string) {
	strat := chaosStrategies[rng.Intn(len(chaosStrategies))]
	cfg := base
	win := []int{1, 8}[rng.Intn(2)]
	cfg.Machine.Net.Window = win
	dd := [...]string{"plain", "dedup", "resume", "full"}[rng.Intn(4)]
	switch dd {
	case "dedup":
		cfg.Machine.Dedup.Enabled = true
	case "resume":
		cfg.Machine.Dedup.Resume = true
	case "full":
		cfg.Machine.Dedup.Enabled = true
		cfg.Machine.Dedup.Resume = true
		cfg.Machine.Dedup.Integrity = true
	}
	cfg.Recovery = &ResilienceOptions{
		MaxRetries: 1 + rng.Intn(3),
		Degrade:    false,
		AckTimeout: 15 * time.Minute,
	}
	name := fmt.Sprintf("%s/w%d/%s/r%d", strat, win, dd, cfg.Recovery.MaxRetries)
	return cfg, strat, name
}

// chaosPlanFor draws one fault plan. Windows are scattered across the
// first minute of virtual time, wide enough (up to ~18 s) that some
// exceed the transport's dead-peer detection horizon and genuinely
// kill attempts, exercising rollback, retry, and the resume ledger.
// Corruption is only drawn when the scenario runs with integrity, so
// undetectable corruption never silently poisons the image invariant.
func chaosPlanFor(rng *xrand.RNG, seed uint64, integrity bool) *faults.Plan {
	p := &faults.Plan{Seed: seed}
	drops := []float64{0, 0, 0.02, 0.08, 0.15, 0.25}
	p.DropProb = drops[rng.Intn(len(drops))]
	for n := rng.Intn(3); n > 0; n-- {
		start := time.Duration(rng.Intn(45000)) * time.Millisecond
		width := time.Duration(1000+rng.Intn(14000)) * time.Millisecond
		p.Bursts = append(p.Bursts, faults.Burst{
			Window: faults.Window{
				Start: faults.Duration(start),
				End:   faults.Duration(start + width),
			},
			DropProb: 0.5 + 0.5*rng.Float64(),
		})
	}
	if rng.Intn(3) == 0 {
		start := time.Duration(rng.Intn(45000)) * time.Millisecond
		width := time.Duration(1000+rng.Intn(17000)) * time.Millisecond
		p.Partitions = append(p.Partitions, faults.Window{
			Start: faults.Duration(start),
			End:   faults.Duration(start + width),
		})
	}
	if integrity && rng.Intn(2) == 0 {
		p.CorruptProb = 0.002 + 0.02*rng.Float64()
	}
	return p
}

// chaosCheck evaluates the invariants for one finished trial against
// its golden. It returns the violated invariant's name and a detail
// string, or "" when every invariant holds.
func chaosCheck(o, g *ResilienceOutcome, plan *faults.Plan) (string, string) {
	if !o.Migrated && !o.Aborted {
		return "no-outcome", fmt.Sprintf("neither migrated nor cleanly aborted (migClass=%s)", o.MigClass)
	}
	if len(plan.Crashes) == 0 && o.ZeroFills > 0 {
		return "orphaned-iou", fmt.Sprintf("%d pages zero-filled under a crash-free plan", o.ZeroFills)
	}
	if o.Downtime < 0 || o.Downtime > o.TotalTime {
		return "downtime-bounds", fmt.Sprintf("downtime %v outside [0, %v]", o.Downtime, o.TotalTime)
	}
	if !o.Completed {
		// A partition longer than the dead-peer horizon is
		// indistinguishable from a backer crash, so an IOU-dependent
		// process can legitimately die of orphaned dependencies even
		// under a crash-free plan. Liveness demands a typed explanation
		// for the death, not unconditional success.
		if o.MigClass == "" && o.ExecClass == "" {
			return "not-completed", "process never completed and no error class explains why"
		}
		return "", ""
	}
	if !o.Migrated {
		return "", ""
	}
	if !o.ImageOnDst {
		return "image-missing", "migrated but the process image is not on the destination"
	}
	// A ResidentSet retry re-excises whatever the rollback left
	// resident — legitimately more than the first attempt shipped — so
	// the strict golden comparisons only apply to first-try ResidentSet.
	if o.Strategy != core.ResidentSet || o.Attempts <= 1 {
		if o.ImageHash != g.ImageHash {
			return "image-divergence", fmt.Sprintf("image %#x, golden %#x (attempts=%d resumed=%d repaired=%d)",
				o.ImageHash, g.ImageHash, o.Attempts, o.ResumedPages, o.RepairedPages)
		}
		if o.SrcFrames != g.SrcFrames || o.DstFrames != g.DstFrames {
			return "frame-leak", fmt.Sprintf("frames src=%d dst=%d, golden src=%d dst=%d (attempts=%d)",
				o.SrcFrames, o.DstFrames, g.SrcFrames, g.DstFrames, o.Attempts)
		}
		if o.Residual != g.Residual {
			return "residual-mismatch", fmt.Sprintf("source owes %d pages, golden owes %d", o.Residual, g.Residual)
		}
	}
	if o.Downtime < g.Downtime {
		return "downtime-understated", fmt.Sprintf("downtime %v below fault-free %v (attempts=%d)",
			o.Downtime, g.Downtime, o.Attempts)
	}
	return "", ""
}

// planElems counts a plan's removable elements for the shrinker.
func planElems(p *faults.Plan) int {
	n := len(p.Bursts) + len(p.Partitions) + len(p.CorruptBursts) + len(p.Crashes)
	if p.DropProb > 0 {
		n++
	}
	if p.CorruptProb > 0 {
		n++
	}
	return n
}

// planDrop returns a copy of the plan with removable element i deleted.
// Element order: base drop prob, bursts, partitions, corrupt prob,
// corrupt bursts, crashes.
func planDrop(p *faults.Plan, i int) *faults.Plan {
	c := *p
	c.Bursts = append([]faults.Burst(nil), p.Bursts...)
	c.Partitions = append([]faults.Window(nil), p.Partitions...)
	c.CorruptBursts = append([]faults.Burst(nil), p.CorruptBursts...)
	c.Crashes = append([]faults.Crash(nil), p.Crashes...)
	if p.DropProb > 0 {
		if i == 0 {
			c.DropProb = 0
			return &c
		}
		i--
	}
	if i < len(c.Bursts) {
		c.Bursts = append(c.Bursts[:i], c.Bursts[i+1:]...)
		return &c
	}
	i -= len(c.Bursts)
	if i < len(c.Partitions) {
		c.Partitions = append(c.Partitions[:i], c.Partitions[i+1:]...)
		return &c
	}
	i -= len(c.Partitions)
	if p.CorruptProb > 0 {
		if i == 0 {
			c.CorruptProb = 0
			return &c
		}
		i--
	}
	if i < len(c.CorruptBursts) {
		c.CorruptBursts = append(c.CorruptBursts[:i], c.CorruptBursts[i+1:]...)
		return &c
	}
	i -= len(c.CorruptBursts)
	c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...)
	return &c
}

// shrinkPlan greedily minimizes a failing plan: repeatedly drop any
// single element whose removal still reproduces the same invariant
// violation, until no element can go (1-minimality). recheck runs the
// trial for a candidate plan and returns the violated invariant name.
func shrinkPlan(plan *faults.Plan, invariant string, recheck func(*faults.Plan) string) *faults.Plan {
	cur := plan
	for changed := true; changed; {
		changed = false
		for i := 0; i < planElems(cur); i++ {
			cand := planDrop(cur, i)
			if recheck(cand) == invariant {
				cur, changed = cand, true
				break
			}
		}
	}
	return cur
}

// chaosViolation packages a confirmed violation, shrinking its plan to
// a minimal reproducer first.
func chaosViolation(c chaosCase, invariant, detail string, recheck func(*faults.Plan) string) *ChaosViolation {
	minimal := shrinkPlan(c.plan, invariant, recheck)
	js, _ := json.Marshal(minimal)
	return &ChaosViolation{
		Seed:      c.plan.Seed,
		Scenario:  c.name,
		Invariant: invariant,
		Detail:    detail,
		Plan:      minimal,
		PlanJSON:  string(js),
	}
}

// Chaos runs a campaign of trials randomized fault plans × scenarios,
// all derived from seed, on the engine's worker pool. Golden runs are
// memoized across trials (there are only a few dozen distinct
// scenarios), so the campaign cost is dominated by the faulted trials
// themselves. Every 16th trial is additionally re-run under the flight
// recorder to check the blame-partition invariant. Under a sink the
// campaign runs uncached on one worker, as the sweeps do, and records
// every trial it runs.
func (e *Engine) Chaos(cfg Config, trials int, seed uint64) (*ChaosReport, error) {
	// An inherited plan would break the campaign's seed-determinism,
	// exactly as in the resilience sweep; each scenario draws its own
	// plan and recovery options.
	cfg.Faults = nil

	h := fnv.New64a()
	h.Write([]byte("chaos"))
	rng := xrand.New(seed ^ h.Sum64())

	cases := make([]chaosCase, trials)
	for i := range cases {
		trng := rng.Fork()
		c := chaosCase{}
		c.cfg, c.strat, c.name = chaosScenario(trng, cfg)
		c.golden = c.cfg
		c.golden.Recovery = &goldenOpts
		c.plan = chaosPlanFor(trng, seed+uint64(i), c.cfg.Machine.Dedup.Integrity)
		c.cfg.Faults = c.plan
		cases[i] = c
	}

	type result struct {
		out       *ResilienceOutcome
		gold      *ResilienceOutcome
		err       error
		invariant string
		detail    string
		profiled  bool
	}
	results := make([]result, trials)
	e.fanOut(cfg.Sink, trials, func(i int) {
		c := cases[i]
		r := &results[i]
		r.gold, r.err = e.ResilienceTrial(c.golden, resilienceKind, c.strat)
		if r.err != nil {
			return
		}
		r.out, r.err = e.ResilienceTrial(c.cfg, resilienceKind, c.strat)
		if r.err != nil {
			r.invariant, r.detail = "trial-error", classifyErr(r.err)
			r.err = nil
			return
		}
		r.invariant, r.detail = chaosCheck(r.out, r.gold, c.plan)
		if r.invariant != "" || i%16 != 0 || !r.out.Migrated || !r.out.Completed {
			return
		}
		// Blame-partition invariant on the profiled subset: re-run the
		// same trial with a flight recorder (traced trials bypass the
		// memoization cache by design) and rebuild the critical path.
		sink, perr := traced(c.cfg, func(pcfg Config) error {
			_, err := RunResilienceTrial(pcfg, resilienceKind, c.strat)
			return err
		})
		if perr != nil {
			return
		}
		r.profiled = true
		pf, perr := prof.Build(sink.Events())
		if perr != nil {
			r.invariant, r.detail = "profile-error", perr.Error()
			return
		}
		sum := 0.0
		for _, cl := range prof.Classes() {
			sum += pf.Blame.Fraction(cl)
		}
		if math.Abs(sum-1) > 1e-6 {
			r.invariant, r.detail = "blame-sum", fmt.Sprintf("blame fractions sum to %.9f", sum)
		}
	})

	rep := &ChaosReport{Kind: resilienceKind, Trials: trials}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		if r.out != nil {
			if r.out.Migrated {
				rep.Migrated++
			}
			if r.out.Aborted {
				rep.Aborted++
			}
			if r.out.Attempts > 1 {
				rep.Retried++
			}
			rep.ResumedPages += r.out.ResumedPages
			rep.RepairedPages += r.out.RepairedPages
			rep.CorruptPages += r.out.CorruptPages
		}
		if r.profiled {
			rep.Profiled++
		}
		if r.invariant == "" {
			continue
		}
		c := cases[i]
		recheck := func(p *faults.Plan) string {
			cc := c.cfg
			cc.Faults = p
			out, err := e.ResilienceTrial(cc, resilienceKind, c.strat)
			if err != nil {
				return "trial-error"
			}
			inv, _ := chaosCheck(out, r.gold, p)
			return inv
		}
		rep.Violations = append(rep.Violations, chaosViolation(c, r.invariant, r.detail, recheck))
	}
	return rep, nil
}

// FormatChaos renders a campaign report.
func FormatChaos(r *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos campaign: %d randomized fault trials (%s)\n\n", r.Trials, r.Kind)
	fmt.Fprintf(&b, "  migrated %d, aborted %d, retried %d, profiled %d\n",
		r.Migrated, r.Aborted, r.Retried, r.Profiled)
	fmt.Fprintf(&b, "  resumed %d pages, repaired %d corrupt pages (%d corrupted in flight)\n",
		r.ResumedPages, r.RepairedPages, r.CorruptPages)
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "  invariants: all hold\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  INVARIANT VIOLATIONS: %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  seed %d  %s  %s\n    %s\n    minimal plan: %s\n",
			v.Seed, v.Scenario, v.Invariant, v.Detail, v.PlanJSON)
	}
	return b.String()
}
