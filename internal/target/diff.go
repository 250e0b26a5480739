package target

import (
	"errors"
	"fmt"
	"strings"

	"xmrobust/internal/obs"
	"xmrobust/internal/sparc"
	"xmrobust/internal/testgen"
)

func init() {
	Register(DiffName,
		"diff:a,b — execute on two backends, record disagreements (the divergence oracle)",
		func(arg string, cfg Config) (Target, error) {
			return NewDiff(arg, cfg)
		})
}

// Diff is the composite backend of the divergence oracle: every dataset
// executes on two sub-targets, the first being the authoritative log the
// analysis pipeline classifies, and any disagreement on the compared
// observables lands in Result.Divergence. diff:sim,phantom turns
// model-vs-simulation disagreement into a finding class the paper could
// not observe.
type Diff struct {
	name string
	a, b Target
	// mDiv counts recorded divergences (xm_diff_divergences_total); nil
	// when obs is off.
	mDiv *obs.Counter
}

// diffSlot pairs one slot of each sub-target.
type diffSlot struct{ a, b Slot }

// NewDiff builds the composite from an "a,b" spec.
func NewDiff(arg string, cfg Config) (*Diff, error) {
	parts := strings.Split(arg, ",")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("target: %q needs two comma-separated backends, e.g. %q (got %q)",
			DiffName, DiffName+":sim,phantom", arg)
	}
	for _, p := range parts {
		if strings.HasPrefix(p, DiffName) {
			return nil, fmt.Errorf("target: %q cannot nest another diff target", DiffName)
		}
	}
	a, err := New(parts[0], cfg)
	if err != nil {
		return nil, componentErr(DiffName+":"+arg, parts[0], err)
	}
	b, err := New(parts[1], cfg)
	if err != nil {
		return nil, componentErr(DiffName+":"+arg, parts[1], err)
	}
	return &Diff{
		name: fmt.Sprintf("%s:%s,%s", DiffName, a.Name(), b.Name()),
		a:    a,
		b:    b,
		mDiv: cfg.Obs.Registry().Counter("xm_diff_divergences_total",
			"Diff-target executions whose backends disagreed."),
	}, nil
}

// Name returns the canonical composite spec ("diff:sim,phantom").
func (d *Diff) Name() string { return d.name }

// Provision provisions both sub-targets.
func (d *Diff) Provision(workers int) error {
	if err := d.a.Provision(workers); err != nil {
		return err
	}
	return d.b.Provision(workers)
}

// Close closes the sub-targets that hold resources (io.Closer), both
// of them even when the first fails.
func (d *Diff) Close() error { return errors.Join(closeTarget(d.a), closeTarget(d.b)) }

// Acquire reserves one slot on each sub-target.
func (d *Diff) Acquire() Slot { return diffSlot{a: d.a.Acquire(), b: d.b.Acquire()} }

// Release returns both slots.
func (d *Diff) Release(s Slot) {
	ds, _ := s.(diffSlot)
	d.a.Release(ds.a)
	d.b.Release(ds.b)
}

// InjectSignature forwards the SEU schedule signature of an injecting
// sub-target ("" when neither leg injects), so a checkpointed
// diff:inject:... campaign refuses a mismatched-schedule resume exactly
// like a bare inject campaign.
func (d *Diff) InjectSignature() string {
	for _, t := range []Target{d.a, d.b} {
		if is, ok := t.(interface{ InjectSignature() string }); ok {
			if sig := is.InjectSignature(); sig != "" {
				return sig
			}
		}
	}
	return ""
}

// PoolStats aggregates the machine-pool counters of pooling sub-targets.
func (d *Diff) PoolStats() sparc.PoolStats {
	var out sparc.PoolStats
	for _, t := range []Target{d.a, d.b} {
		if ps, ok := t.(interface{ PoolStats() sparc.PoolStats }); ok {
			st := ps.PoolStats()
			out.Allocated += st.Allocated
			out.Reused += st.Reused
			out.Discarded += st.Discarded
		}
	}
	return out
}

// Execute runs the dataset on both backends and returns the first
// backend's log, tagged with the composite name and carrying the
// divergence (nil when the backends agree).
func (d *Diff) Execute(slot Slot, ds testgen.Dataset, spec RunSpec) Result {
	s, _ := slot.(diffSlot)
	ra := d.a.Execute(s.a, ds, spec)
	rb := d.b.Execute(s.b, ds, spec)
	res := ra
	res.Target = d.name
	res.Divergence = Compare(ra, rb)
	if res.Divergence != nil {
		d.mDiv.Inc()
	}
	if res.Cover == nil {
		// A model-first composite (diff:phantom,sim) must not drop the
		// simulating leg's edge coverage — the feedback loop and the
		// coverage report read it off the composite's Result.
		res.Cover = rb.Cover
	}
	if res.Injection == nil {
		// Likewise an injecting second leg (diff:phantom,inject:sim):
		// the SEU study reads the record off the composite's Result.
		res.Injection = rb.Injection
	}
	return res
}
