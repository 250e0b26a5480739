// Package campaign executes robustness test campaigns: the Test Generation
// and Execution phase of the paper's methodology (§III.B).
//
// The campaign layer owns scheduling — plans, worker pools, shards,
// checkpoints — while the execution of an individual test belongs to the
// pluggable backends of internal/target: the simulated LEON3 testbed
// (target "sim", the default), the analytical kernel model ("phantom"),
// or a divergence-recording composite ("diff:a,b"). Tests are mutually
// independent (each gets its own execution slot), so the engine fans them
// out over a worker pool.
package campaign

import (
	"fmt"
	"io"
	"runtime"

	"xmrobust/internal/apispec"
	"xmrobust/internal/corpus"
	"xmrobust/internal/dict"
	"xmrobust/internal/inject"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// DefaultMAFs is the number of cyclic schedules each test runs for.
const DefaultMAFs = 2

// Result is the execution log of one test case. It is produced by the
// target layer; the campaign, analysis and report layers consume it
// unchanged regardless of the backend that executed the test.
type Result = target.Result

// Divergence is a diff-target disagreement between two backends.
type Divergence = target.Divergence

// Options configures a campaign run.
type Options struct {
	// Faults selects the kernel version under test (default LegacyFaults,
	// the version the paper tested).
	Faults xm.FaultSet
	// MAFs is the number of major frames per test (default DefaultMAFs).
	MAFs int
	// Workers is the level of parallelism (default GOMAXPROCS).
	Workers int
	// Header is the API spec with the tested selection (default
	// apispec.Default()).
	Header *apispec.Header
	// Dict is the value dictionary (default dict.Builtin()).
	Dict *dict.Dictionary
	// Stress pre-loads the system before injection (paper §V: robustness
	// results differ under stressful states): one warm-up frame with
	// saturated IPC queues and trace buffers.
	Stress bool
	// Plan selects the test-generation strategy ("" or "exhaustive" for
	// the paper's full Eq. 1 product; "pairwise", "rand:N", "boundary",
	// "feedback:N", "phantom" for other plans — see testgen.NewPlan).
	Plan string
	// Target selects the execution backend ("" or "sim" for the
	// simulated testbed; "phantom" for the analytical model;
	// "diff:a,b" for the divergence oracle — see target.New).
	Target string
	// Seed feeds randomised plans (rand:N, feedback:N); deterministic
	// strategies ignore it.
	Seed int64
	// Coverage collects kernel edge coverage per test (Result.Cover).
	// Feedback plans force it on; for static plans it is the opt-in
	// behind coverage reporting (-cover-stats).
	Coverage bool
	// Corpus is the JSON Lines corpus file of the feedback plan:
	// previously admitted datasets load as mutation parents, and new
	// admissions append as they happen. Only valid with -plan feedback:N.
	Corpus string
	// Inject parameterises the SEU schedule of inject:* targets (see
	// internal/inject): the fraction of tests injected and the enabled
	// flip sites. The zero value injects every test across every site.
	// The schedule is keyed by Seed, so one campaign seed reproduces
	// both the plan and the fault sequence.
	Inject inject.Params
	// Progress, when non-nil, receives (done, total) after every test.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.MAFs <= 0 {
		o.MAFs = DefaultMAFs
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Header == nil {
		o.Header = apispec.Default()
	}
	if o.Dict == nil {
		o.Dict = dict.Builtin()
	}
	if o.Target == "" {
		o.Target = target.SimName
	}
	return o
}

// injectParams resolves the SEU schedule parameters, anchoring the
// schedule to the campaign seed.
func (o Options) injectParams() inject.Params {
	p := o.Inject
	p.Seed = o.Seed
	return p
}

// runSpec projects the campaign options onto the per-run execution
// parameters of the target layer.
func (o Options) runSpec() target.RunSpec {
	return target.RunSpec{
		Faults:   o.Faults,
		MAFs:     o.MAFs,
		Stress:   o.Stress,
		Header:   o.Header,
		Dict:     o.Dict,
		Coverage: o.Coverage,
	}
}

// RunOne executes a single dataset on the configured target (default sim,
// fresh testbed) and returns its execution log.
func RunOne(ds testgen.Dataset, opts Options) Result {
	opts = opts.withDefaults()
	tgt, err := target.New(opts.Target, target.Config{Inject: opts.injectParams()})
	if err != nil {
		return Result{Dataset: ds, RunErr: err.Error()}
	}
	if c, ok := tgt.(io.Closer); ok {
		defer c.Close()
	}
	if err := tgt.Provision(1); err != nil {
		return Result{Dataset: ds, RunErr: err.Error()}
	}
	slot := tgt.Acquire()
	defer tgt.Release(slot)
	return tgt.Execute(slot, ds, opts.runSpec())
}

// BuildPlan applies the option defaults and constructs the campaign's
// test plan — the generation front of every campaign. The execution
// side is validated here too: a broken target spec (unknown backend, bad
// composite component, bad injection schedule) fails the campaign up
// front with the resolution error instead of surfacing as one harness
// error per test.
// A configured corpus file attaches to the feedback plan (and is
// rejected for any other strategy); the caller owns closing the plan
// when it is a Closer.
func BuildPlan(opts Options) (testgen.Plan, Options, error) {
	opts = opts.withDefaults()
	if _, err := target.New(opts.Target, target.Config{Inject: opts.injectParams()}); err != nil {
		return nil, opts, err
	}
	plan, err := testgen.NewPlan(opts.Plan, opts.Header, opts.Dict, opts.Seed)
	if err != nil {
		return nil, opts, err
	}
	if opts.Corpus != "" {
		fp, ok := plan.(*corpus.FeedbackPlan)
		if !ok {
			return nil, opts, fmt.Errorf("campaign: a corpus file requires the feedback plan, not %q", plan.Strategy())
		}
		if err := fp.UseCorpusFile(opts.Corpus); err != nil {
			return nil, opts, err
		}
	}
	return plan, opts, nil
}

// RunDatasets executes a pre-generated dataset list and returns the
// results in dataset order: the collect-to-slice step over the streaming
// engine — machine pooling on, no shards, no checkpoint, every Result
// accumulated in memory.
func RunDatasets(datasets []testgen.Dataset, opts Options) []Result {
	results := make([]Result, len(datasets))
	// Without shard or checkpoint configuration Stream fails only on a
	// broken target spec, before anything executes; the error then
	// surfaces in every result's RunErr.
	_, err := Stream(datasets, EngineOptions{Options: opts}, func(pos int, r Result) {
		results[pos] = r
	})
	if err != nil {
		for i := range results {
			results[i] = Result{Dataset: datasets[i], RunErr: err.Error()}
		}
	}
	return results
}
