// Package xmrobust is the public API of the robustness-testing toolset:
// a functional-options facade over the campaign engine, its catalogue of
// test plans, the pluggable execution-target registry, and the
// log-analysis pipeline of the paper's methodology (Preparation, Test
// Generation and Execution, Log Analysis).
//
// The one-call workflow:
//
//	rep, err := xmrobust.Run(
//		xmrobust.WithPlan("pairwise"),
//		xmrobust.WithTarget("diff:sim,phantom"),
//		xmrobust.WithSeed(7),
//	)
//	fmt.Print(rep.Summary())
//
// Every campaign streams through a pooled worker engine, and its
// analysis is folded in as each result lands. Without WithCheckpoint the
// execution logs stay in memory (Report.Results). With it they shard
// into JSON Lines files, and an interrupted campaign resumes
// (WithResume) from its last completed test. The Report is the same
// either way.
package xmrobust

import (
	"errors"
	"io"
	"path/filepath"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/core"
	"xmrobust/internal/store"
	"xmrobust/internal/target"

	// The remote backend registers itself ("remote:<addr>[,<addr>...]")
	// so WithTarget("remote:...") fans a campaign out across xmworker
	// fleets without any further wiring.
	_ "xmrobust/internal/remote"
)

// Run executes a robustness campaign configured by the options (zero
// options: the paper's campaign — legacy kernel, exhaustive plan, sim
// target, two major frames per test).
func Run(options ...Option) (*Report, error) {
	cfg, err := build(options)
	if err != nil {
		return nil, err
	}
	eo := cfg.eng
	switch {
	case eo.ShardDir != "":
		eo.CheckpointPath = filepath.Join(eo.ShardDir, "checkpoint.jsonl")
	// Both need the checkpoint: a resume reads the skipped tests' logs
	// back from its shards, and a budgeted run that cannot be resumed
	// would report tests it never executed.
	case eo.Resume:
		return nil, errors.New("xmrobust: WithResume requires WithCheckpoint")
	case eo.Limit > 0:
		return nil, errors.New("xmrobust: WithLimit requires WithCheckpoint")
	}
	rep, err := core.RunCampaign(cfg.opts, eo)
	if err != nil {
		return nil, err
	}
	st := eo.Store
	if st == nil {
		st = store.Local()
	}
	return &Report{rep: rep, faults: cfg.opts.Faults, store: st, dir: eo.ShardDir}, nil
}

// RunOne executes a single dataset on the configured target (default: a
// fresh simulated testbed) and returns its execution log.
func RunOne(ds Dataset, options ...Option) (Result, error) {
	cfg, err := build(options)
	if err != nil {
		return Result{}, err
	}
	return campaign.RunOne(ds, cfg.opts), nil
}

// RunDatasets executes a pre-generated dataset list and returns the
// results in dataset order.
func RunDatasets(datasets []Dataset, options ...Option) ([]Result, error) {
	cfg, err := build(options)
	if err != nil {
		return nil, err
	}
	return campaign.RunDatasets(datasets, cfg.opts), nil
}

// Classify runs the log-analysis phase over a result list: per-test
// CRASH-scale verdicts clustered into the campaign's issue list.
func Classify(results []Result, options ...Option) ([]Issue, error) {
	cfg, err := build(options)
	if err != nil {
		return nil, err
	}
	oracle := analysis.NewOracle(cfg.opts.Faults)
	return analysis.Cluster(analysis.ClassifyAll(results, oracle)), nil
}

// MergeLog writes the shard records of a checkpointed campaign directory
// to w as one JSON Lines log in campaign order, returning the record
// count — byte-identical to the log the same campaign run in memory
// writes with Report.WriteLog.
func MergeLog(dir string, w io.Writer) (int, error) {
	return campaign.MergeShards(dir, w)
}

// PlanInfo names and describes one test plan.
type PlanInfo = campaign.PlanInfo

// TargetInfo describes one registered execution backend.
type TargetInfo = target.Info

// Plans returns every test plan WithPlan accepts, sorted by name — the
// discovery surface behind xmfuzz -list.
func Plans() []PlanInfo { return campaign.Plans() }

// Targets returns every registered execution backend.
func Targets() []TargetInfo { return target.Inventory() }
