package target

import (
	"strings"
	"testing"

	"xmrobust/internal/inject"
	"xmrobust/internal/xm"
)

func TestInjectPassThroughWhenScheduleSkips(t *testing.T) {
	// At a tiny rate the schedule leaves (essentially) every test clean:
	// the composite must run one leg only and carry no injection record.
	tgt, err := New("inject:sim", Config{Inject: inject.Params{Rate: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset(t, "XM_get_time", 0)
	res := execute(t, tgt, ds, spec1())
	if res.Injection != nil {
		t.Fatalf("uninjected test carries a record: %+v", res.Injection)
	}
	if res.Target != "inject:sim" {
		t.Fatalf("target = %q", res.Target)
	}
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
}

func TestInjectRecordsAppliedFlip(t *testing.T) {
	tgt, err := New("inject:sim", Config{Inject: inject.Params{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(1); err != nil {
		t.Fatal(err)
	}
	// Sweep a handful of datasets; every one must carry a record (rate
	// 1) and applied flips must carry an outcome class.
	applied := 0
	for rank := int64(0); rank < 6; rank++ {
		ds := dataset(t, "XM_read_sampling_message", rank)
		slot := tgt.Acquire()
		res := tgt.Execute(slot, ds, spec1())
		tgt.Release(slot)
		if res.Injection == nil {
			t.Fatalf("rank %d: rate-1 schedule left the test clean", rank)
		}
		rec := res.Injection
		if rec.Site == "" || rec.Phase == "" {
			t.Fatalf("rank %d: incomplete record %+v", rank, rec)
		}
		if rec.Applied {
			applied++
			switch rec.Outcome {
			case inject.OutcomeMasked, inject.OutcomeWrong, inject.OutcomeDetected,
				inject.OutcomeCrash, inject.OutcomeHang:
			default:
				t.Fatalf("rank %d: applied flip with outcome %q", rank, rec.Outcome)
			}
		} else if rec.Outcome != "" {
			t.Fatalf("rank %d: unapplied flip classified as %q", rank, rec.Outcome)
		}
	}
	if applied == 0 {
		t.Fatal("no flip applied across six datasets")
	}
}

func TestInjectExecuteIsDeterministic(t *testing.T) {
	ds := dataset(t, "XM_write_sampling_message", 2)
	render := func() string {
		tgt, err := New("inject:sim", Config{Inject: inject.Params{Seed: 4}})
		if err != nil {
			t.Fatal(err)
		}
		res := execute(t, tgt, ds, spec1())
		if res.Injection == nil {
			t.Fatal("no record")
		}
		return res.Injection.Site + "|" + res.Injection.Phase + "|" + res.Injection.Outcome +
			"|" + res.Injection.Delta
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("two identical executions diverged:\n%s\n%s", a, b)
	}
}

func TestInjectSignatureSurfaces(t *testing.T) {
	tgt, err := New("inject:sim", Config{Inject: inject.Params{Rate: 0.5, Sites: []string{"ram"}, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	is, ok := tgt.(interface{ InjectSignature() string })
	if !ok {
		t.Fatal("inject target does not expose its schedule signature")
	}
	if got := is.InjectSignature(); got != "rate=0.5|sites=ram|seed=3" {
		t.Fatalf("signature = %q", got)
	}
}

func TestInjectRefusesCompositesAndBadSchedules(t *testing.T) {
	for _, spec := range []string{"inject", "inject:", "inject:inject:sim", "inject:diff:sim,phantom"} {
		if _, err := New(spec, Config{}); err == nil {
			t.Errorf("New(%q) accepted", spec)
		}
	}
	if _, err := New("inject:sim", Config{Inject: inject.Params{Rate: 2}}); err == nil {
		t.Error("rate 2 accepted")
	}
	if _, err := New("inject:sim", Config{Inject: inject.Params{Sites: []string{"alu"}}}); err == nil {
		t.Error("unknown site accepted")
	}
}

func TestDiffComposesOverInject(t *testing.T) {
	tgt, err := New("diff:inject:sim,phantom", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Name() != "diff:inject:sim,phantom" {
		t.Fatalf("name = %q", tgt.Name())
	}
	is, ok := tgt.(interface{ InjectSignature() string })
	if !ok || is.InjectSignature() == "" {
		t.Fatal("diff-wrapped inject does not surface the schedule signature")
	}
}

// TestDiffForwardsSecondLegInjection: with the injecting backend as the
// diff's second leg (diff:phantom,inject:sim) the composite's primary
// log is the phantom's, but the injection record — like the coverage
// map — must ride along, or the SEU study sees an empty campaign.
func TestDiffForwardsSecondLegInjection(t *testing.T) {
	tgt, err := New("diff:phantom,inject:sim", Config{Inject: inject.Params{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset(t, "XM_get_time", 0)
	res := execute(t, tgt, ds, spec1())
	if res.Injection == nil {
		t.Fatal("second-leg injection record dropped by the diff composite")
	}
}

// TestNewNamesBadComponentAndInventory is the table test of the
// resolution-error contract: a bad backend name anywhere in a composite
// spec must surface the bad component, the full registry inventory, and
// the composite it sat in.
func TestNewNamesBadComponentAndInventory(t *testing.T) {
	inventory := Names()
	cases := []struct {
		spec string
		want []string
	}{
		{"bogus", []string{`"bogus"`}},
		{"inject:bogus", []string{`"bogus"`, `"inject:bogus"`}},
		{"diff:sim,bogus", []string{`"bogus"`, `"diff:sim,bogus"`}},
		{"diff:bogus,sim", []string{`"bogus"`, `"diff:bogus,sim"`}},
		{"inject:phantom:x", []string{`"phantom:x"`, `"inject:phantom:x"`}},
	}
	for _, tc := range cases {
		_, err := New(tc.spec, Config{})
		if err == nil {
			t.Errorf("New(%q) accepted", tc.spec)
			continue
		}
		msg := err.Error()
		for _, want := range tc.want {
			if !strings.Contains(msg, want) {
				t.Errorf("New(%q) error %q lacks %s", tc.spec, msg, want)
			}
		}
		if tc.spec != "inject:phantom:x" {
			// Unknown-name failures must carry the full inventory; the
			// phantom:x case fails on the argument instead.
			for _, name := range inventory {
				if !strings.Contains(msg, name) {
					t.Errorf("New(%q) error %q lacks inventory entry %q", tc.spec, msg, name)
				}
			}
		}
	}
}

// TestInjectedCampaignLeavesPoolClean is the pooled half of the
// no-residue property (the machine-level half lives in internal/inject):
// a strict-mode pool scans every byte of every recycled machine, so a
// flip that escaped Reset's bookkeeping would surface as a discarded
// machine. Only simulator crashes may discard.
func TestInjectedCampaignLeavesPoolClean(t *testing.T) {
	tgt, err := New("inject:sim", Config{PoolStrict: true, Inject: inject.Params{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.Provision(1); err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for _, fn := range []string{"XM_read_sampling_message", "XM_set_timer", "XM_reset_partition"} {
		for rank := int64(0); rank < 4; rank++ {
			ds := dataset(t, fn, rank)
			slot := tgt.Acquire()
			res := tgt.Execute(slot, ds, spec1())
			tgt.Release(slot)
			if res.SimCrashed {
				crashes++
			}
		}
	}
	st := tgt.(*Inject).PoolStats()
	if st.Discarded > uint64(2*crashes) {
		// Each test runs two legs; at worst both crash. Anything beyond
		// that is a verification failure — injection residue.
		t.Fatalf("pool discarded %d machines for %d crashed tests: %+v", st.Discarded, crashes, st)
	}
}

// TestInjectedMachineVerifiesCleanAfterReset drives the sim backend
// directly with forced per-site plans — including datasets whose runs
// crash the simulator mid-flight — and requires every machine to come
// back from Reset in a state the exhaustive VerifyClean scan accepts.
// It extends sparc's TestResetScrubsEverything across the whole injected
// execution path.
func TestInjectedMachineVerifiesCleanAfterReset(t *testing.T) {
	sim := NewSim(Config{})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	sched, err := inject.NewSchedule(inject.Params{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, fn := range []string{"XM_set_timer", "XM_read_sampling_message", "XM_resume_partition"} {
		for rank := int64(0); rank < 5; rank++ {
			ds := dataset(t, fn, rank)
			plan := sched.Plan(ds)
			rs := spec1()
			rs.MAFs = 2
			rs.Inject = plan
			slot := sim.Acquire()
			m := slot.(*simSlot).m
			if m == nil {
				t.Fatal("pooled sim handed out a nil machine")
			}
			res := sim.Execute(slot, ds, rs)
			if res.SimCrashed {
				crashed++
			}
			m.Reset()
			if err := m.VerifyClean(); err != nil {
				t.Fatalf("%s rank %d (inject %+v): residue after reset: %v", fn, rank, plan, err)
			}
			sim.Release(slot)
		}
	}
	if crashed == 0 {
		t.Log("no simulator crash in the sweep; the crash path rode along untested")
	}
}

func TestInjectionOutcomeClasses(t *testing.T) {
	base := Result{Invocations: 1, Returns: []xm.RetCode{xm.OK}}
	hm := base
	hm.HMEvents = []xm.HMLogEntry{{}}
	crash := base
	crash.SimCrashed = true
	halt := base
	halt.KernelState = xm.KStateHalted
	reset := base
	reset.WarmResets = 1
	hang := base
	hang.Returns = nil
	wrong := base
	wrong.Returns = []xm.RetCode{xm.InvalidParam}
	cases := []struct {
		name     string
		ref, inj Result
		want     string
	}{
		{"masked", base, base, inject.OutcomeMasked},
		{"crash-sim", base, crash, inject.OutcomeCrash},
		{"crash-halt", base, halt, inject.OutcomeCrash},
		{"crash-reset", base, reset, inject.OutcomeCrash},
		{"detected", base, hm, inject.OutcomeDetected},
		{"detected-beats-hang", base, func() Result {
			r := hm
			r.Returns = nil
			return r
		}(), inject.OutcomeDetected},
		{"hang", base, hang, inject.OutcomeHang},
		{"wrong", base, wrong, inject.OutcomeWrong},
		{"crash-beats-detected", base, func() Result {
			r := hm
			r.SimCrashed = true
			return r
		}(), inject.OutcomeCrash},
	}
	for _, tc := range cases {
		got, delta := injectionOutcome(tc.ref, tc.inj)
		if got != tc.want {
			t.Errorf("%s: outcome %q, want %q", tc.name, got, tc.want)
		}
		if (delta == "") != (got == inject.OutcomeMasked) {
			t.Errorf("%s: delta %q inconsistent with outcome %q", tc.name, delta, got)
		}
	}
}
