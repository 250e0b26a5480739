package xmrobust

import (
	"context"
	"fmt"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/inject"
)

// Option configures a campaign run (functional options over
// campaign.Options and the streaming engine).
type Option func(*config)

// config collects the campaign and engine configuration an option list
// builds.
type config struct {
	opts      campaign.Options
	eng       campaign.EngineOptions
	fn        string
	injectSet bool
}

// build folds an option list into the resolved configuration.
func build(options []Option) (config, error) {
	var cfg config
	for _, o := range options {
		o(&cfg)
	}
	if cfg.injectSet && cfg.opts.Inject.Rate == 0 && len(cfg.opts.Inject.Sites) == 0 {
		// Validate reads this schedule as unset, which selects the
		// default rate of 1 — the opposite of what the caller asked.
		// Validate checks every other schedule, and its target.
		return cfg, fmt.Errorf("xmrobust: injection rate 0 outside (0, 1]")
	}
	if cfg.fn != "" {
		base := apispec.Default()
		if cfg.opts.Header != nil {
			base = cfg.opts.Header
		}
		// Rewrite the tested selection on a copy — the caller's header
		// (WithHeader) must not be mutated behind their back.
		header := *base
		header.Functions = append([]apispec.Function(nil), base.Functions...)
		found := false
		for i := range header.Functions {
			tested := header.Functions[i].Name == cfg.fn
			if tested {
				found = true
			}
			header.Functions[i].Tested = map[bool]string{true: "YES", false: "NO"}[tested]
		}
		if !found {
			return cfg, fmt.Errorf("xmrobust: unknown hypercall %q", cfg.fn)
		}
		cfg.opts.Header = &header
	}
	cfg.eng.Options = cfg.opts
	return cfg, cfg.eng.Validate()
}

// WithPlan selects the test-generation strategy: "exhaustive" (default,
// the paper's full Eq. 1 product), "pairwise", "rand:N", "boundary",
// "feedback:N" (coverage-guided) or "phantom" (the §V extension suite).
// Plans lists them; any other spec is refused.
func WithPlan(spec string) Option { return func(c *config) { c.opts.Plan = spec } }

// WithTarget selects the execution backend: "sim" (default, the
// simulated LEON3 testbed), "phantom" (the analytical kernel model), or
// "diff:a,b" (execute on both, record divergences). See Targets.
func WithTarget(spec string) Option { return func(c *config) { c.opts.Target = spec } }

// WithSeed feeds randomised plans (rand:N, feedback:N); deterministic
// strategies ignore it.
func WithSeed(seed int64) Option { return func(c *config) { c.opts.Seed = seed } }

// WithCoverage collects kernel edge coverage per test (feedback plans
// force it on).
func WithCoverage() Option { return func(c *config) { c.opts.Coverage = true } }

// WithInjection arms the SEU schedule of an inject:* target: rate is the
// fraction of tests injected (in (0, 1]) and sites restricts the flip
// sites ("ram", "mmu", "iu", "timer", "clock"; none listed: all). The
// schedule is keyed by WithSeed, so one seed reproduces both the test
// plan and the fault sequence. Requires a target that injects (an
// inject:* spec, possibly diff-wrapped) — pairing it with any other
// backend is rejected up front rather than silently injecting nothing.
// Inject targets run without it at the default schedule (every test
// injected, all sites).
func WithInjection(rate float64, sites ...string) Option {
	return func(c *config) {
		c.opts.Inject = inject.Params{Rate: rate, Sites: sites}
		c.injectSet = true
	}
}

// WithCorpus attaches the feedback plan's JSON Lines corpus file:
// previously admitted datasets load as mutation parents, new admissions
// append. Only valid with WithPlan("feedback:N").
func WithCorpus(path string) Option { return func(c *config) { c.opts.Corpus = path } }

// WithMAFs sets the number of major frames each test runs for (default
// 2). Run refuses more than 1000.
func WithMAFs(n int) Option { return func(c *config) { c.opts.MAFs = n } }

// WithWorkers sets the engine parallelism (default GOMAXPROCS). Run
// refuses more than 256.
func WithWorkers(n int) Option { return func(c *config) { c.opts.Workers = n } }

// WithStress pre-loads the system before injection (paper §V): one
// warm-up frame with saturated IPC queues.
func WithStress() Option { return func(c *config) { c.opts.Stress = true } }

// WithFaults selects the kernel version under test (default
// LegacyFaults, the version the paper tested).
func WithFaults(fs FaultSet) Option { return func(c *config) { c.opts.Faults = fs } }

// WithPatchedKernel tests the revised kernel the XtratuM team shipped
// after the campaign (the fault-removal ablation).
func WithPatchedKernel() Option { return func(c *config) { c.opts.Faults = PatchedFaults() } }

// WithHeader sets the API spec with the tested selection (default: the
// paper's Fig. 2 header).
func WithHeader(h *Header) Option { return func(c *config) { c.opts.Header = h } }

// WithDict sets the data-type value dictionary (default: the paper's
// Fig. 3/Table II dictionaries).
func WithDict(d *Dictionary) Option { return func(c *config) { c.opts.Dict = d } }

// WithFunction restricts the campaign to one hypercall.
func WithFunction(name string) Option { return func(c *config) { c.fn = name } }

// WithCheckpoint keeps the campaign's execution logs on disk instead
// of in memory: they land in JSON Lines shards under dir, and a
// checkpoint file records the campaign's identity, so WithResume
// continues an interrupted campaign after the records already complete
// in the shards. MergeLog (or Report.WriteLog) restores the single
// merged log.
func WithCheckpoint(dir string) Option { return func(c *config) { c.eng.ShardDir = dir } }

// WithResume resumes an interrupted campaign from its WithCheckpoint
// state. The checkpoint refuses a plan, seed or target mismatch by name.
func WithResume() Option { return func(c *config) { c.eng.Resume = true } }

// WithBatchSize leases contiguous runs of n tests to each engine worker
// on targets that batch (sim and remote:); without it, or with 0, a
// lease holds campaign.DefaultBatchSize (16) tests, and 1 means one
// test per lease. Every sim test takes its machine from the pool and
// recycles the testbed kernel parked on it, whatever the lease size; a
// lease shares only the coordinator round trip, the slot and, on
// remote: targets, the request frame. Results are byte-identical
// whatever the lease — the capability's contract, pinned by the
// engine's batching tests. Targets without the capability and
// feedback-driven plans lease one test at a time.
func WithBatchSize(n int) Option { return func(c *config) { c.eng.BatchSize = n } }

// WithLimit stops dispatching after n tests this call (0: run
// everything), giving budgeted runs the same semantics as an
// interruption. It requires WithCheckpoint, so WithResume can run the
// rest.
func WithLimit(n int) Option { return func(c *config) { c.eng.Limit = n } }

// WithStore routes a checkpointed campaign's checkpoint and log shards
// through the given store instead of the local filesystem. The seam
// distributed campaigns use when shards live away from the coordinating
// process; NewMemStore() gives ephemeral runs. The feedback corpus file
// does not follow it: WithCorpus always opens its file on the local
// filesystem, so WithStore(NewMemStore()) plus WithCorpus(path) still
// writes path to disk.
func WithStore(s Store) Option { return func(c *config) { c.eng.Store = s } }

// WithObs attaches an observability handle to the campaign: the engine,
// lease coordinator and execution targets publish metrics into its
// registry and live progress into its snapshot, and checkpointed
// campaigns stream span-style trace events into the shard directory.
// Serve the handle over HTTP with ServeOps. Nil — the default — keeps
// the hot path at one nil check per event (pinned by
// BenchmarkObsOverhead).
func WithObs(o *Obs) Option { return func(c *config) { c.eng.Obs = o } }

// WithContext arms cooperative cancellation: once ctx is done the
// engine stops issuing work, in-flight tests finish (remote leases are
// abandoned), shards flush, and Run returns ctx's error — with
// WithCheckpoint the interrupted campaign is durable, and WithResume
// replays it to a byte-identical merged log. A nil ctx (the default)
// never cancels. Either way a test the target could not execute (a
// remote: fleet that stayed down) stops the campaign the same way, and
// Run returns the target's error.
func WithContext(ctx context.Context) Option { return func(c *config) { c.eng.Ctx = ctx } }
