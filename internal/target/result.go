package target

import (
	"fmt"
	"strings"

	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/inject"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// Result is the execution log of one test case — everything §III.C says
// must be monitored: return codes, health-monitor events, partition and
// kernel statuses, plus the simulator's own fate. Every backend produces
// the same Result shape, so the analysis and report pipelines are
// target-agnostic.
type Result struct {
	Dataset  testgen.Dataset
	Resolved []dict.Resolved

	// Target names the backend that produced this log.
	Target string

	// TestPartition is the id of the partition hosting the fault
	// placeholder (the FDIR system partition of the testbed).
	TestPartition int

	// Invocations counts fault-placeholder activations; Returns holds the
	// return codes of those that came back. A shortfall means control
	// never returned to the test partition.
	Invocations int
	Returns     []xm.RetCode

	// Kernel health.
	KernelState xm.KState
	KernelHalt  string
	ColdResets  uint32
	WarmResets  uint32
	HMEvents    []xm.HMLogEntry

	// Test partition health.
	PartState  xm.PState
	PartDetail string

	// Simulator fate.
	SimCrashed  bool
	CrashReason string

	// RunErr records an unexpected harness error ("" normally).
	RunErr string

	// Aborted means "not executed", whatever the cause: a cancelled
	// context, a closed backend, or a remote fleet that stayed down
	// through every attempt. RunErr then says why. Aborted results never
	// describe kernel behaviour: the engine discards them instead of
	// logging them, so the position re-executes on resume,
	// and one that nobody cancelled stops the campaign with that error.
	// The field is never serialised.
	Aborted bool

	// Cover is the kernel edge coverage of the run (nil unless
	// RunSpec.Coverage was on and the backend collects it).
	Cover *cover.Map

	// Divergence records a diff-target disagreement between the two
	// composed backends (nil outside diff targets, and on diff tests
	// whose backends agreed).
	Divergence *Divergence

	// Injection records the scheduled SEU of an inject-target run — the
	// flip's site/bit/cycle and its outcome against the clean reference
	// leg (nil outside inject targets and on tests the schedule left
	// clean).
	Injection *inject.Injection
}

// Returned reports whether every invocation returned to the guest.
func (r Result) Returned() bool {
	return r.Invocations > 0 && len(r.Returns) == r.Invocations
}

// LastReturn is the last observed return code (ok=false when none).
func (r Result) LastReturn() (xm.RetCode, bool) {
	if len(r.Returns) == 0 {
		return 0, false
	}
	return r.Returns[len(r.Returns)-1], true
}

// Divergence is the diff target's finding: two backends executed the same
// dataset and disagreed on at least one compared observable. Fields, A
// and B are aligned: Fields[i] disagreed, with A[i] on the first backend
// and B[i] on the second.
type Divergence struct {
	Targets [2]string `json:"targets"`
	Fields  []string  `json:"fields"`
	A       []string  `json:"a"`
	B       []string  `json:"b"`
}

// String renders the disagreement compactly.
func (d *Divergence) String() string {
	parts := make([]string, len(d.Fields))
	for i, f := range d.Fields {
		parts[i] = fmt.Sprintf("%s: %s vs %s", f, d.A[i], d.B[i])
	}
	return strings.Join(parts, "; ")
}

// renderReturns joins a return-code sequence symbolically.
func renderReturns(rcs []xm.RetCode) string {
	if len(rcs) == 0 {
		return "(none)"
	}
	parts := make([]string, len(rcs))
	for i, rc := range rcs {
		parts[i] = rc.String()
	}
	return strings.Join(parts, ",")
}

// Compare diffs the compared observables of two executions of the same
// dataset and returns nil when they agree. Detail strings (halt reasons,
// HM entry text) are deliberately excluded: backends word their
// diagnostics differently, and the oracle is about observable behaviour —
// return codes, final states, reset and HM event counts, simulator fate.
func Compare(a, b Result) *Divergence {
	d := &Divergence{Targets: [2]string{a.Target, b.Target}}
	add := func(field, av, bv string) {
		if av != bv {
			d.Fields = append(d.Fields, field)
			d.A = append(d.A, av)
			d.B = append(d.B, bv)
		}
	}
	add("invocations", fmt.Sprintf("%d", a.Invocations), fmt.Sprintf("%d", b.Invocations))
	add("returns", renderReturns(a.Returns), renderReturns(b.Returns))
	add("kernel_state", a.KernelState.String(), b.KernelState.String())
	add("resets", fmt.Sprintf("cold=%d,warm=%d", a.ColdResets, a.WarmResets),
		fmt.Sprintf("cold=%d,warm=%d", b.ColdResets, b.WarmResets))
	add("part_state", a.PartState.String(), b.PartState.String())
	add("hm_events", fmt.Sprintf("%d", len(a.HMEvents)), fmt.Sprintf("%d", len(b.HMEvents)))
	add("sim_crashed", fmt.Sprintf("%v", a.SimCrashed), fmt.Sprintf("%v", b.SimCrashed))
	add("harness", a.RunErr, b.RunErr)
	if len(d.Fields) == 0 {
		return nil
	}
	return d
}
