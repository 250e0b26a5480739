// Package target is the backend-agnostic execution layer of the toolset:
// the paper's methodology (generate → execute on a target → classify the
// logs) is target-shaped, and this package owns the "execute on a target"
// step behind one pluggable interface.
//
// A Target turns one generated dataset into one execution log (Result).
// Four backends ship built in:
//
//   - sim:     the simulated LEON3 machine running the XtratuM-like
//     kernel on the EagleEye testbed — the paper's execution environment
//     and the campaign default. Machines are recycled through a
//     reset-and-verify pool sized by Provision, each carrying the testbed
//     kernel its next test recycles.
//   - phantom: a fast analytical model of the kernel as its reference
//     manual documents it — no simulator is booted; outcomes are
//     predicted from the dictionary's validity annotations and the ABI's
//     documented state semantics.
//   - diff:a,b — a composite that executes every dataset on two backends
//     and records their disagreement (return codes, HM events, final
//     states) in Result.Divergence. diff:sim,phantom is the
//     model-vs-simulation oracle: a divergence is behaviour the manual
//     does not predict, a finding class the paper could not observe.
//   - inject:<base> — a composite that runs every dataset twice on the
//     wrapped backend, once clean and once under a scheduled SEU bit
//     flip (internal/inject), and classifies the upset's outcome against
//     the clean leg (masked / wrong-result / hm-detected / crash /
//     hang) in Result.Injection.
//
// Backends live in a registry: Register adds a backend, New resolves a
// "name" or "name:arg" spec, and Inventory is the discovery surface
// behind xmfuzz -list.
package target

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// Built-in target names.
const (
	SimName     = "sim"
	PhantomName = "phantom"
	DiffName    = "diff"
	InjectName  = "inject"
)

// Slot is one execution slot of a provisioned target: whatever state the
// backend reserves per concurrent execution (the sim target hands out
// pooled machines; the phantom model needs nothing). Slots move between
// Acquire, Execute and Release opaquely.
type Slot any

// RunSpec carries the per-run execution parameters — the knobs that shape
// what one test's log looks like, shared by every backend.
type RunSpec struct {
	// Faults selects the kernel version under test.
	Faults xm.FaultSet
	// MAFs is the number of major frames each test runs for.
	MAFs int
	// Stress pre-loads the system before injection (paper §V): one
	// warm-up frame with saturated IPC queues.
	Stress bool
	// Header and Dict are the campaign's spec and value dictionary.
	Header *apispec.Header
	Dict   *dict.Dictionary
	// Coverage collects kernel edge coverage per test on backends that
	// support it (Result.Cover stays nil elsewhere).
	Coverage bool
	// Inject is the armed SEU plan of one injected execution, set by the
	// inject:* composite for its injected leg (nil everywhere else — the
	// only cost of the no-injection path is that nil check, see
	// BenchmarkInjectOverhead). Machine-backed targets apply it at their
	// phase anchors; analytical backends have no machine state to upset
	// and ignore it.
	Inject *inject.Plan
}

// SnapshotSlot is an optional capability of slots whose backing state
// can be rewound in place: Restore returns the slot to its power-on
// state. Composites use it to recycle a slot between execution legs
// without a Release/Acquire round-trip through the backend's pool; the
// rewound state is exactly what a round-trip would have produced.
type SnapshotSlot interface {
	Restore() error
}

// BatchExecutor is an optional capability of targets that execute a
// lease of tests while holding one slot. The campaign engine and the
// remote worker hand every lease on such a target to one ExecuteBatch
// call, a lease of one included; other targets get one Execute per
// test. Each dataset executes with exactly Execute's semantics: the
// results are byte-identical to a loop of Execute calls with pool
// round-trips in between — only the per-test overhead amortises across
// the lease (the slot round-trip, and for the remote client the frame),
// never what a test observes.
type BatchExecutor interface {
	ExecuteBatch(slot Slot, batch []testgen.Dataset, spec RunSpec) []Result
}

// Target is one execution backend. Execute must be safe for concurrent
// use across distinct slots — the campaign worker pool calls it from
// several goroutines, each holding its own acquired slot. A backend that
// holds resources past a campaign (the remote backend's worker
// connections) also implements io.Closer; whoever built it closes it.
type Target interface {
	// Name returns the canonical target spec ("sim", "phantom",
	// "diff:sim,phantom").
	Name() string
	// Provision prepares the backend for a campaign executing with the
	// given worker parallelism (the sim target sizes its machine pool
	// here). It is called once, before the first Acquire.
	Provision(workers int) error
	// Acquire reserves one execution slot; Release returns it.
	Acquire() Slot
	Release(Slot)
	// Execute runs one dataset in the given slot and returns its
	// execution log.
	Execute(slot Slot, ds testgen.Dataset, spec RunSpec) Result
}

// Config carries backend construction options that are not per-run
// (RunSpec) and not per-campaign sizing (Provision).
type Config struct {
	// PoolStrict makes the machine pool scan every byte of every
	// recycled machine. Slow; for isolation tests.
	PoolStrict bool
	// Inject parameterises the SEU schedule of inject:* targets (rate,
	// sites, seed); other backends ignore it.
	Inject inject.Params
	// Obs, when non-nil, lets a backend register its metrics (pool
	// counters, injection outcomes, divergences, remote wire traffic)
	// with the campaign's observability spine. Nil — the default — costs
	// instrumented backends one nil check per event.
	Obs *obs.Obs
	// Ctx, when non-nil, is the campaign's cancellation context. A
	// backend finishes the test in hand regardless (a single test is
	// short), but the sim backend skips the rest of its lease and the
	// remote client abandons in-flight leases and retry waits, returning
	// Aborted results: not executed, which the engine discards. Nil: no
	// cancel aborts an execution (a remote fleet that stays down still
	// does).
	Ctx context.Context
}

// Factory builds a target from the text after ":" in its spec ("" when
// absent).
type Factory func(arg string, cfg Config) (Target, error)

// Info describes one registered backend for discovery surfaces.
type Info struct {
	Name string
	Desc string
}

type entry struct {
	desc    string
	factory Factory
}

// registry is the backend registry, mirroring testgen's strategy
// registry.
var registry = map[string]entry{}

// Register adds (or replaces) an execution backend under the given name,
// with a one-line description for the discovery surfaces.
func Register(name, desc string, f Factory) {
	registry[name] = entry{desc: desc, factory: f}
}

// New resolves a target spec ("name" or "name:arg", "" defaulting to
// sim) against the registry.
func New(spec string, cfg Config) (Target, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	if name == "" {
		name = SimName
	}
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("target: unknown target %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return e.factory(arg, cfg)
}

// componentErr decorates a sub-target resolution failure of a composite
// spec ("diff:sim,bogus", "inject:bogus") with the component that failed
// and the composite it sat in — the wrapped unknown-target error already
// lists the registry inventory, so the user sees the bad name, the full
// menu, and where the bad name appeared.
func componentErr(composite, component string, err error) error {
	return fmt.Errorf("%w (resolving component %q of %q)", err, component, composite)
}

// closeTarget closes t when it holds resources (io.Closer) — how a
// composite forwards Close to its components.
func closeTarget(t Target) error {
	if c, ok := t.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Inventory returns every registered backend with its description,
// sorted by name — the discovery surface behind xmfuzz -list.
func Inventory() []Info {
	out := make([]Info, 0, len(registry))
	for n, e := range registry {
		out = append(out, Info{Name: n, Desc: e.desc})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
