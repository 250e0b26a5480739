// Package core is the toolset facade: it ties the API spec, the data-type
// dictionaries, the test generator, the campaign runner and the log
// analysis into the one-call workflow of paper Fig. 1 — Preparation, Test
// Generation and Execution, Log Analysis.
package core

import (
	"io"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/corpus"
	"xmrobust/internal/cover"
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

// CampaignReport is the complete outcome of one robustness campaign.
type CampaignReport struct {
	Options     campaign.Options
	Plan        testgen.PlanStats
	Coverage    CoverageStats
	Datasets    []testgen.Dataset
	Results     []campaign.Result
	Classified  []analysis.Classified
	Issues      []analysis.Issue
	Divergences []DivergenceFinding
	// Injection is the SEU study of an inject-target campaign (nil when
	// nothing was injected).
	Injection *analysis.InjectionStudy
}

// RunCampaign executes the full pipeline with the given options (zero
// value: the paper's campaign — legacy kernel, default spec and
// dictionaries, exhaustive plan, two major frames per test), retaining
// every execution log in memory. Optional engine options tune the
// execution machinery (batch size, strict pool checks) without changing
// results. Large or reduced campaigns stream instead: RunCampaignStream.
func RunCampaign(opts campaign.Options, engine ...campaign.EngineOptions) (*CampaignReport, error) {
	var eo campaign.EngineOptions
	if len(engine) > 0 {
		eo = engine[0]
	}
	rep := &CampaignReport{Options: opts}
	plan, ropts, err := campaign.BuildPlan(opts)
	if err != nil {
		return nil, err
	}
	rep.Options = ropts
	eo.Options = ropts
	defer closePlan(plan)
	rep.Plan = testgen.Measure(plan)
	if testgen.IsDynamic(plan) {
		// A dynamic plan breeds datasets from execution feedback, so it
		// cannot be materialised up front: stream it through the engine
		// with an in-memory sink to keep the eager report shape.
		results := make([]campaign.Result, plan.Len())
		if _, err := campaign.StreamPlan(plan, eo,
			func(pos int, r campaign.Result) { results[pos] = r }); err != nil {
			return nil, err
		}
		rep.Results = results
		rep.Datasets = make([]testgen.Dataset, len(results))
		for i, r := range results {
			rep.Datasets[i] = r.Dataset
		}
	} else {
		rep.Datasets = testgen.Materialize(plan)
		results := make([]campaign.Result, len(rep.Datasets))
		// Without shard or checkpoint configuration Stream fails only on
		// a broken target spec, before anything executes; the error then
		// surfaces in every result's RunErr (RunDatasets' behaviour).
		// Cancellation is the exception: it arrives with real results
		// already collected, so it propagates as an error instead of
		// overwriting them.
		if _, err := campaign.Stream(rep.Datasets, eo, func(pos int, r campaign.Result) {
			results[pos] = r
		}); err != nil {
			if eo.Ctx != nil && eo.Ctx.Err() != nil {
				return nil, err
			}
			for i := range results {
				results[i] = campaign.Result{Dataset: rep.Datasets[i], RunErr: err.Error()}
			}
		}
		rep.Results = results
	}
	var agg cover.Map
	study := analysis.NewInjectionStudy()
	for _, r := range rep.Results {
		if r.Cover != nil {
			agg.Merge(r.Cover)
		}
		study.Add(r)
	}
	rep.Coverage = coverageStats(plan, &agg)
	if !study.Empty() {
		rep.Injection = study
	}
	for i, r := range rep.Results {
		if r.Divergence != nil {
			rep.Divergences = append(rep.Divergences, DivergenceFinding{
				Seq: i, Dataset: r.Dataset.String(), Divergence: *r.Divergence,
			})
		}
	}
	oracle := analysis.NewOracle(ropts.Faults)
	rep.Classified = analysis.ClassifyAll(rep.Results, oracle)
	rep.Issues = analysis.Cluster(rep.Classified)
	return rep, nil
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
	counts := map[string]int{}
	for _, res := range r.Results {
		counts[res.Dataset.Func.Name]++
	}
	return tableIIIRows(counts, r.Issues)
}

// tableIIIRows computes the Table III rows from per-hypercall test counts
// — the aggregation shared by the eager and streaming reports.
func tableIIIRows(testsByFunc map[string]int, issues []analysis.Issue) []CategoryStats {
	byCat := map[xm.Category]*CategoryStats{}
	var rows []*CategoryStats
	for _, cat := range xm.Categories() {
		cs := &CategoryStats{Category: cat, TotalHypercalls: len(xm.ByCategory(cat))}
		byCat[cat] = cs
		rows = append(rows, cs)
	}
	for name, tests := range testsByFunc {
		spec, ok := xm.LookupName(name)
		if !ok {
			continue
		}
		cs := byCat[spec.Category]
		cs.Tests += tests
		cs.Tested++
	}
	for _, iss := range issues {
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

// Failures returns the classified results with failing verdicts.
func (r *CampaignReport) Failures() []analysis.Classified {
	var out []analysis.Classified
	for _, c := range r.Classified {
		if c.Verdict.Failure() {
			out = append(out, c)
		}
	}
	return out
}

// VerdictCounts tallies the CRASH scale over the whole campaign.
func (r *CampaignReport) VerdictCounts() map[analysis.Verdict]int {
	out := map[analysis.Verdict]int{}
	for _, c := range r.Classified {
		out[c.Verdict]++
	}
	return out
}
