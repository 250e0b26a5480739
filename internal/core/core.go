// Package core is the toolset facade: it ties the API spec, the data-type
// dictionaries, the test generator, the campaign runner and the log
// analysis into the one-call workflow of paper Fig. 1 — Preparation, Test
// Generation and Execution, Log Analysis.
package core

import (
	"io"
	"sort"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/corpus"
	"xmrobust/internal/cover"
	"xmrobust/internal/store"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// CoverageStats summarises a campaign's kernel edge coverage. Enabled is
// false when collection was off (the zero value renders as nothing).
type CoverageStats struct {
	Enabled bool
	// Edges is the number of distinct kernel edges the whole campaign
	// exercised; Signature is the stable hash of that edge set.
	Edges     int
	Signature uint64
	// Loop carries the feedback plan's own accounting (corpus size,
	// seed schedule, edges-over-time curve); nil for static plans.
	Loop *corpus.Stats
}

// DivergenceFinding is one diff-target disagreement, located in the
// campaign: the new oracle class of the divergence-recording composite
// targets (model-vs-simulation disagreement).
type DivergenceFinding struct {
	Seq        int
	Dataset    string
	Divergence campaign.Divergence
}

// CampaignReport is the complete outcome of one robustness campaign. The
// analysis is aggregated incrementally, so nothing in it grows with the
// test count except the failure and divergence evidence and, for a
// campaign without a shard directory, Results.
type CampaignReport struct {
	// Plan quantifies the generation strategy: test count, Eq. 1 size,
	// value-pair coverage and the reduction factor.
	Plan testgen.PlanStats
	// Target names the execution backend the campaign ran on.
	Target string
	// Total is the campaign size; Executed ran in this call; Skipped were
	// restored from a previous run's checkpoint.
	Total    int
	Executed int
	Skipped  int
	// HarnessErrors counts tests that failed in the harness rather than
	// the kernel (Result.RunErr set) — the campaign-error signal command
	// line tools gate their exit status on.
	HarnessErrors int
	// TestsByFunc counts the campaign's tests per hypercall.
	TestsByFunc map[string]int
	// Verdicts tallies the CRASH scale over the whole campaign.
	Verdicts map[analysis.Verdict]int
	// Issues is the clustered issue list (paper Table III).
	Issues []analysis.Issue
	// Divergences lists the diff-target disagreements in campaign order
	// (empty outside diff campaigns).
	Divergences []DivergenceFinding
	// Coverage summarises the campaign's kernel edge coverage (zero
	// value when collection was off).
	Coverage CoverageStats
	// Injection is the SEU study of an inject-target campaign (nil when
	// nothing was injected).
	Injection *analysis.InjectionStudy
	// Engine reports what the execution engine did.
	Engine campaign.EngineStats
	// Results holds every execution log in campaign order when the
	// campaign ran without a shard directory; with one it is nil and the
	// logs live in the shard files.
	Results []campaign.Result
}

// RunCampaign executes the full pipeline with the given options (zero
// value: the paper's campaign — legacy kernel, default spec and
// dictionaries, exhaustive plan, two major frames per test). Optional
// engine options tune the execution machinery (shards, checkpoint,
// resume, batch size, store) without changing results.
//
// The plan generates datasets lazily, the engine streams them through
// its worker pool, and every result is folded into the classifier,
// clusterer, injection-study and coverage accumulators as it lands. A
// resumed campaign also folds in the restored tests' shard records, so
// an interrupted-then-resumed campaign reports exactly what an
// uninterrupted one does.
func RunCampaign(opts campaign.Options, engine ...campaign.EngineOptions) (*CampaignReport, error) {
	var eo campaign.EngineOptions
	if len(engine) > 0 {
		eo = engine[0]
	}
	plan, ropts, err := campaign.BuildPlan(opts)
	if err != nil {
		return nil, err
	}
	defer closePlan(plan)
	eo.Options = ropts
	rep := &CampaignReport{Plan: testgen.Measure(plan), Target: ropts.Target, Total: plan.Len()}
	cls := analysis.NewClassifier(analysis.NewOracle(ropts.Faults))
	clu := analysis.NewClusterer()
	study := analysis.NewInjectionStudy()
	var agg cover.Map
	fold := func(pos int, res campaign.Result) {
		if res.Cover != nil {
			agg.Merge(res.Cover)
		}
		if res.Divergence != nil {
			rep.Divergences = append(rep.Divergences, DivergenceFinding{
				Seq: pos, Dataset: res.Dataset.String(), Divergence: *res.Divergence,
			})
		}
		study.Add(res)
		clu.Add(pos, cls.Add(res))
	}
	if eo.ShardDir == "" {
		rep.Results = make([]campaign.Result, rep.Total)
	}
	// folded marks the positions already analysed, so a resume's shard
	// re-read skips what this call executed and the byte-identical
	// duplicates an interruption leaves behind.
	var folded []bool
	if eo.Resume {
		folded = make([]bool, rep.Total)
	}
	stats, err := campaign.StreamPlan(plan, eo, func(pos int, res campaign.Result) {
		if rep.Results != nil {
			rep.Results[pos] = res
		}
		if folded != nil {
			folded[pos] = true
		}
		fold(pos, res)
	})
	if err != nil {
		return nil, err
	}
	rep.Engine, rep.Executed, rep.Skipped = stats, stats.Executed, stats.Skipped
	if eo.Resume {
		st := eo.Store
		if st == nil {
			st = store.Local()
		}
		err := campaign.ScanShardsIn(st, eo.ShardDir, func(rec campaign.JSONRecord) error {
			if rec.Seq < 0 || rec.Seq >= len(folded) || folded[rec.Seq] {
				return nil
			}
			folded[rec.Seq] = true
			res, err := rec.Result(ropts.Header)
			if err != nil {
				return err
			}
			fold(rec.Seq, res)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Results arrive in completion or file order; divergences read in
	// campaign order.
	sort.Slice(rep.Divergences, func(a, b int) bool { return rep.Divergences[a].Seq < rep.Divergences[b].Seq })
	rep.TestsByFunc, rep.Verdicts, rep.HarnessErrors = cls.TestsByFunc, cls.Verdicts, cls.HarnessErrors
	rep.Issues = clu.Issues()
	rep.Coverage = coverageStats(plan, &agg)
	if !study.Empty() {
		rep.Injection = study
	}
	return rep, nil
}

// RunCampaignStream is RunCampaign with explicit engine options, kept
// for callers written against the name.
func RunCampaignStream(opts campaign.Options, eo campaign.EngineOptions) (*CampaignReport, error) {
	return RunCampaign(opts, eo)
}

// coverageStats folds the aggregated coverage map and (for feedback
// plans) the loop's own accounting into the report form.
func coverageStats(plan testgen.Plan, agg *cover.Map) CoverageStats {
	cs := CoverageStats{}
	if fp, ok := plan.(*corpus.FeedbackPlan); ok {
		st := fp.Stats()
		cs.Loop = &st
	}
	if agg.Empty() && cs.Loop == nil {
		return cs
	}
	cs.Enabled = true
	cs.Edges = agg.Count()
	cs.Signature = agg.Signature()
	return cs
}

// closePlan releases plan-held resources (the feedback plan's corpus
// file); static plans hold none.
func closePlan(plan testgen.Plan) {
	if c, ok := plan.(io.Closer); ok {
		c.Close()
	}
}

// CategoryStats is one row of the paper's Table III.
type CategoryStats struct {
	Category        xm.Category
	TotalHypercalls int
	Tested          int
	Tests           int
	Issues          int
}

// TableIII aggregates the campaign into the paper's Table III rows, in
// the paper's row order, with a trailing totals row.
func (r *CampaignReport) TableIII() []CategoryStats {
	byCat := map[xm.Category]*CategoryStats{}
	var rows []*CategoryStats
	for _, cat := range xm.Categories() {
		cs := &CategoryStats{Category: cat, TotalHypercalls: len(xm.ByCategory(cat))}
		byCat[cat] = cs
		rows = append(rows, cs)
	}
	for name, tests := range r.TestsByFunc {
		spec, ok := xm.LookupName(name)
		if !ok {
			continue
		}
		cs := byCat[spec.Category]
		cs.Tests += tests
		cs.Tested++
	}
	for _, iss := range r.Issues {
		if cs, ok := byCat[iss.Category]; ok {
			cs.Issues++
		}
	}
	total := CategoryStats{Category: "Total"}
	out := make([]CategoryStats, 0, len(rows)+1)
	for _, cs := range rows {
		out = append(out, *cs)
		total.TotalHypercalls += cs.TotalHypercalls
		total.Tested += cs.Tested
		total.Tests += cs.Tests
		total.Issues += cs.Issues
	}
	return append(out, total)
}
