package xmrobust

import (
	"errors"
	"io"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/core"
	"xmrobust/internal/report"
	"xmrobust/internal/store"
)

// Report is the outcome of one campaign: the analysis aggregated as the
// results landed, plus where the execution logs live — in memory
// (Results) or, with WithCheckpoint, in the checkpoint directory's
// shards.
type Report struct {
	rep    *core.CampaignReport
	faults FaultSet
	store  store.LogStore
	dir    string
}

// Streamed reports whether the campaign ran with WithCheckpoint: its
// execution logs live in the shard files and Results is nil.
func (r *Report) Streamed() bool { return r.dir != "" }

// Summary renders the complete campaign report: the plan line, Table
// III, the CRASH tally, Fig. 8, the issue list, the coverage, divergence
// and injection sections when the campaign produced them, and the
// engine's accounting.
func (r *Report) Summary() string { return report.Full(r.rep) }

// TableText renders the paper's Table III for this campaign.
func (r *Report) TableText() string { return report.TableIII(r.rep) }

// TableCSV renders Table III as CSV.
func (r *Report) TableCSV() string { return report.TableIIICSV(r.rep) }

// IssuesText renders the clustered issue list (§IV.C).
func (r *Report) IssuesText() string { return analysis.Summary(r.rep.Issues) }

// Issues returns the clustered issue list.
func (r *Report) Issues() []Issue { return r.rep.Issues }

// Results returns every execution log of the campaign in campaign order
// (nil with WithCheckpoint — the logs live in the shard files; see
// WriteLog).
func (r *Report) Results() []Result { return r.rep.Results }

// Total returns the campaign size.
func (r *Report) Total() int { return r.rep.Total }

// Executed returns the number of tests executed by this call.
func (r *Report) Executed() int { return r.rep.Executed }

// Skipped returns the number of tests restored from the checkpoint.
func (r *Report) Skipped() int { return r.rep.Skipped }

// HarnessErrors counts tests that failed in the harness rather than the
// kernel — the campaign-health signal command-line tools gate their exit
// status on. Robustness findings are the product, not errors.
func (r *Report) HarnessErrors() int { return r.rep.HarnessErrors }

// Divergences returns the diff-target disagreements of the campaign, in
// campaign order (empty outside diff targets).
func (r *Report) Divergences() []DivergenceFinding { return r.rep.Divergences }

// MaskingText renders the fault-masking study (paper Fig. 7). It
// classifies every execution log again and therefore needs them in
// memory: it is unavailable with WithCheckpoint.
func (r *Report) MaskingText() (string, error) {
	if r.rep.Results == nil {
		return "", errors.New("xmrobust: the masking study needs the execution logs in memory (drop WithCheckpoint)")
	}
	classified := analysis.ClassifyAll(r.rep.Results, analysis.NewOracle(r.faults))
	return analysis.MaskingSummary(analysis.MaskingStudy(classified)), nil
}

// WriteLog writes the raw campaign log to w as JSON Lines, one
// self-contained record per test in campaign order, returning the record
// count. With WithCheckpoint it merges the shard files through the
// campaign's store; otherwise it serialises the in-memory results — the
// byte streams are identical for identical campaigns.
func (r *Report) WriteLog(w io.Writer) (int, error) {
	if r.dir != "" {
		return campaign.MergeShardsIn(r.store, r.dir, w)
	}
	if err := campaign.WriteJSON(w, r.rep.Results); err != nil {
		return 0, err
	}
	return len(r.rep.Results), nil
}
