package target

import (
	"fmt"
	"strings"

	"xmrobust/internal/inject"
	"xmrobust/internal/obs"
	"xmrobust/internal/sparc"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

func init() {
	Register(InjectName,
		"inject:<base> — SEU bit-flip campaigns: clean + injected legs, outcomes masked/wrong-result/hm-detected/crash/hang",
		func(arg string, cfg Config) (Target, error) {
			return NewInject(arg, cfg)
		})
}

// Inject is the SEU fault-injection composite: every dataset executes
// twice on the wrapped backend — once clean, once with the schedule's bit
// flip armed — and the injected leg's log, tagged with the Injection
// record and its outcome class, is what the campaign records. The
// schedule is a pure function of (seed, dataset), so injected campaigns
// keep the engine's exact-resume and byte-reproducibility invariants.
type Inject struct {
	name  string
	base  Target
	sched inject.Schedule
	// met tallies per-site outcomes (xm_inject_outcomes_total); nil when
	// obs is off.
	met *obs.InjectMetrics
}

// injectSlot is a mutable holder for the composite's current base slot:
// Execute recycles the slot through the base backend between the clean
// and injected legs (each leg must start from power-on state), so the
// holder tracks which slot the engine's Release must hand back.
type injectSlot struct{ s Slot }

// NewInject builds the composite from its base-target spec ("sim",
// "diff:sim,phantom" composes the other way: diff:inject:sim,phantom).
func NewInject(arg string, cfg Config) (*Inject, error) {
	if arg == "" {
		return nil, fmt.Errorf("target: %q wraps a base backend, e.g. %q", InjectName, InjectName+":sim")
	}
	baseName := arg
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		baseName = arg[:i]
	}
	switch baseName {
	case InjectName:
		return nil, fmt.Errorf("target: %q cannot nest another inject target", InjectName)
	case DiffName:
		return nil, fmt.Errorf(
			"target: %q cannot wrap %q — compose the other way round (%s:%s:sim,phantom injects the sim leg of a diff)",
			InjectName, DiffName, DiffName, InjectName)
	}
	base, err := New(arg, cfg)
	if err != nil {
		return nil, componentErr(InjectName+":"+arg, arg, err)
	}
	sched, err := inject.NewSchedule(cfg.Inject)
	if err != nil {
		return nil, err
	}
	return &Inject{
		name:  InjectName + ":" + base.Name(),
		base:  base,
		sched: sched,
		met:   obs.NewInjectMetrics(cfg.Obs.Registry()),
	}, nil
}

// Name returns the canonical composite spec ("inject:sim").
func (t *Inject) Name() string { return t.name }

// InjectSignature returns the schedule's identity; campaign checkpoints
// record it and refuse to resume under a different one.
func (t *Inject) InjectSignature() string { return t.sched.Signature() }

// Provision provisions the wrapped backend.
func (t *Inject) Provision(workers int) error { return t.base.Provision(workers) }

// Close closes the wrapped backend when it holds resources (io.Closer).
func (t *Inject) Close() error { return closeTarget(t.base) }

// Acquire reserves one base slot (a second is never held: the two legs
// of an injected test recycle the one slot through the base pool).
func (t *Inject) Acquire() Slot { return &injectSlot{s: t.base.Acquire()} }

// Release returns the currently held base slot.
func (t *Inject) Release(s Slot) {
	if is, _ := s.(*injectSlot); is != nil {
		t.base.Release(is.s)
	}
}

// PoolStats forwards the wrapped backend's machine-pool counters.
func (t *Inject) PoolStats() sparc.PoolStats {
	if ps, ok := t.base.(interface{ PoolStats() sparc.PoolStats }); ok {
		return ps.PoolStats()
	}
	return sparc.PoolStats{}
}

// Execute runs the dataset clean, then under the scheduled flip, and
// returns the injected leg's log carrying the Injection record. Tests
// the schedule leaves clean run once and pass through. Between the two
// legs the slot is recycled through the base backend — the injected leg
// must start from power-on state, and the base pool's reset-and-verify
// cycle is the established way to get there.
func (t *Inject) Execute(slot Slot, ds testgen.Dataset, spec RunSpec) Result {
	is, _ := slot.(*injectSlot)
	plan := t.sched.Plan(ds)
	if plan == nil {
		res := t.base.Execute(is.s, ds, spec)
		res.Target = t.name
		return res
	}
	ref := t.base.Execute(is.s, ds, spec)
	// The injected leg must start from power-on state. Slots with the
	// SnapshotSlot capability rewind in place, producing exactly the
	// pool round-trip's power-on state; anything else (or a slot that
	// refuses the rewind) recycles through the base backend.
	if ss, ok := is.s.(SnapshotSlot); !ok || ss.Restore() != nil {
		t.base.Release(is.s)
		is.s = t.base.Acquire()
	}
	ispec := spec
	ispec.Inject = plan
	res := t.base.Execute(is.s, ds, ispec)
	res.Target = t.name
	rec := plan.Injection
	if rec.Applied {
		rec.Outcome, rec.Delta = injectionOutcome(ref, res)
		t.met.OnOutcome(rec.Site, rec.Outcome)
	}
	res.Injection = &rec
	return res
}

// injectionOutcome classifies an applied flip by comparing the injected
// leg's observables to the clean reference leg's. Severity wins:
// anything that killed the system is a crash even if the health monitor
// also logged on the way down, an HM report outranks a hang (the
// monitor halting the faulty partition is FDIR doing its job), and any
// remaining disagreement without an error report is the silent
// wrong-result class. No disagreement at all means the architecture
// masked the upset.
func injectionOutcome(ref, inj Result) (string, string) {
	d := Compare(ref, inj)
	delta := ""
	if d != nil {
		delta = d.String()
	}
	switch {
	case inj.SimCrashed && !ref.SimCrashed,
		inj.KernelState == xm.KStateHalted && ref.KernelState != xm.KStateHalted,
		inj.ColdResets+inj.WarmResets > ref.ColdResets+ref.WarmResets,
		inj.RunErr != ref.RunErr:
		return inject.OutcomeCrash, delta
	case len(inj.HMEvents) > len(ref.HMEvents):
		return inject.OutcomeDetected, delta
	case ref.Returned() && !inj.Returned():
		return inject.OutcomeHang, delta
	case d != nil:
		return inject.OutcomeWrong, delta
	default:
		return inject.OutcomeMasked, delta
	}
}
