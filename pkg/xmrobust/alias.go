package xmrobust

// This file re-exports the vocabulary of the internal packages that the
// public API traffics in. Aliases keep the facade thin — a Result built
// by the campaign engine IS a xmrobust.Result — while external importers
// never name an internal package.

import (
	"xmrobust/internal/analysis"
	"xmrobust/internal/apispec"
	"xmrobust/internal/core"
	"xmrobust/internal/dict"
	"xmrobust/internal/eagleeye"
	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// Core campaign vocabulary.
type (
	// Result is the execution log of one test case.
	Result = target.Result
	// Divergence is a diff-target disagreement between two backends.
	Divergence = target.Divergence
	// DivergenceFinding locates a divergence in a campaign.
	DivergenceFinding = core.DivergenceFinding
	// Injection is the SEU record of one inject-target run: where the
	// schedule flipped a bit and how the outcome compared to the clean
	// reference leg.
	Injection = inject.Injection
	// InjectionStudy is the per-site outcome tally of an SEU campaign.
	InjectionStudy = analysis.InjectionStudy
	// Dataset is one generated test case: a hypercall with one value per
	// parameter (and, for §V extension tests, a phantom state).
	Dataset = testgen.Dataset
	// Matrix is the per-hypercall test_value_matrix of paper Fig. 5.
	Matrix = testgen.Matrix
	// Issue is one clustered robustness finding.
	Issue = analysis.Issue
	// Header is the API specification (paper Fig. 2).
	Header = apispec.Header
	// Dictionary is the data-type test-value dictionary (paper Fig. 3).
	Dictionary = dict.Dictionary
	// FaultSet selects the kernel version under test.
	FaultSet = xm.FaultSet
	// Store is the persistence seam of checkpointed campaigns: where
	// checkpoints and log shards live (WithStore). The default is the
	// local filesystem; NewMemStore keeps them in memory. A WithCorpus
	// file always lives on the local filesystem.
	Store = store.Store
)

// Observability vocabulary (WithObs, ServeOps).
type (
	// Obs bundles one process's observability spine — metrics registry,
	// trace-event stream, live progress — attached to a campaign with
	// WithObs and served over HTTP with ServeOps.
	Obs = obs.Obs
	// OpsServer is the HTTP server ServeOps starts: /metrics (Prometheus
	// text), /healthz, /progress (JSON) and /debug/pprof.
	OpsServer = obs.OpsServer
	// ProgressSnapshot is one point-in-time view of a running campaign:
	// done/total, throughput, ETA and per-outcome tallies.
	ProgressSnapshot = obs.Snapshot
)

// Simulated-system vocabulary (NewSystem, guest programs).
type (
	// Kernel is a booted TSP system: the XtratuM-like separation kernel
	// hosting its partitions on the simulated LEON3 machine.
	Kernel = xm.Kernel
	// Env is the execution environment a guest program runs in.
	Env = xm.Env
	// RetCode is the signed 32-bit hypercall return code.
	RetCode = xm.RetCode
	// KState is the hypervisor execution state; PState a partition's.
	KState = xm.KState
	PState = xm.PState
	// Addr is a physical address of the simulated machine.
	Addr = sparc.Addr
	// TestbedReport is the FDIR partition's view of the EagleEye testbed.
	TestbedReport = eagleeye.FDIRReport
)

// Kernel and partition states.
const (
	KStateRunning = xm.KStateRunning
	KStateHalted  = xm.KStateHalted

	PStateNormal    = xm.PStateNormal
	PStateSuspended = xm.PStateSuspended
	PStateHalted    = xm.PStateHalted
)

// EagleEye testbed partition ids and landmark addresses.
const (
	Platform = eagleeye.Platform
	Payload  = eagleeye.Payload
	GNC      = eagleeye.GNC
	TMTC     = eagleeye.TMTC
	FDIR     = eagleeye.FDIR

	DefaultRAMBase = sparc.DefaultRAMBase
)

// Re-exported constructors and helpers of the preparation and analysis
// phases.
var (
	// LegacyFaults is the kernel version the paper tested; PatchedFaults
	// the revised kernel shipped after the campaign.
	LegacyFaults  = xm.LegacyFaults
	PatchedFaults = xm.PatchedFaults

	// DefaultHeader returns the paper's Fig. 2 API spec; BuiltinDict the
	// Fig. 3/Table II dictionaries. ParseHeader and ParseDict load
	// hand-authored XML artefacts (the kernel-agnostic workflow of
	// paper §III).
	DefaultHeader = apispec.Default
	BuiltinDict   = dict.Builtin
	ParseHeader   = apispec.Parse
	ParseDict     = dict.Parse

	// Generate materialises the full Eq. 1 dataset list of a spec;
	// BuildMatrix the per-hypercall value matrix; RenderMutantC one
	// dataset's mutant source.
	Generate      = testgen.Generate
	BuildMatrix   = testgen.BuildMatrix
	RenderMutantC = testgen.RenderMutantC

	// SummarizeIssues renders an issue list as the §IV.C findings
	// section.
	SummarizeIssues = analysis.Summary

	// TestbedStatus reads the FDIR partition's testbed report out of a
	// running EagleEye system.
	TestbedStatus = eagleeye.Report

	// LocalStore is the default campaign persistence (plain files);
	// NewMemStore builds an in-memory store for tests and ephemeral
	// campaigns (see WithStore).
	LocalStore  = store.Local
	NewMemStore = store.NewMem

	// NewObs builds an observability handle (WithObs); ServeOps exposes
	// one over HTTP — /metrics, /healthz, /progress, /debug/pprof.
	NewObs   = obs.New
	ServeOps = obs.ListenAndServe
)
