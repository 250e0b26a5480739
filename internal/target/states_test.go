package target

import (
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

func TestPhantomStatesInventory(t *testing.T) {
	states := PhantomStates()
	if len(states) != 5 {
		t.Fatalf("phantom states = %d, want 5", len(states))
	}
	seen := map[string]bool{}
	for _, st := range states {
		if st.Name == "" || st.Desc == "" {
			t.Errorf("state %+v lacks name/description", st)
		}
		if seen[st.Name] {
			t.Errorf("duplicate state %q", st.Name)
		}
		seen[st.Name] = true
	}
	if !seen["nominal"] {
		t.Error("the nominal state must anchor the comparison")
	}
}

func TestPhantomPlanCoversParameterlessCalls(t *testing.T) {
	plan, err := NewPhantomPlan(apispec.Default())
	if err != nil {
		t.Fatal(err)
	}
	// 10 parameter-less hypercalls x 5 states.
	if plan.Len() != 50 {
		t.Fatalf("suite = %d tests, want 50", plan.Len())
	}
	if plan.Strategy() != StrategyPhantom {
		t.Fatalf("strategy = %q", plan.Strategy())
	}
	if plan.Fingerprint() == "" {
		t.Fatal("no fingerprint")
	}
	fns := map[string]int{}
	states := map[string]bool{}
	for i := 0; i < plan.Len(); i++ {
		ds := plan.At(i)
		if ds.Index != i {
			t.Errorf("dataset %d carries index %d", i, ds.Index)
		}
		if len(ds.Func.Params) != 0 {
			t.Errorf("%s has parameters", ds.Func.Name)
		}
		fns[ds.Func.Name]++
		states[ds.State] = true
	}
	if len(fns) != 10 {
		t.Fatalf("functions = %d, want 10", len(fns))
	}
	for fn, n := range fns {
		if n != 5 {
			t.Errorf("%s tested under %d states, want 5", fn, n)
		}
	}
	if len(states) != 5 {
		t.Fatalf("states covered = %d, want 5", len(states))
	}
}

// phantomFor finds the plan dataset for (fn, state).
func phantomFor(t *testing.T, fn, state string) testgen.Dataset {
	t.Helper()
	plan, err := NewPhantomPlan(apispec.Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plan.Len(); i++ {
		if ds := plan.At(i); ds.Func.Name == fn && ds.State == state {
			return ds
		}
	}
	t.Fatalf("no phantom test %s @ %s", fn, state)
	return testgen.Dataset{}
}

// runPhantomOnSim executes one §V test on the sim backend.
func runPhantomOnSim(t *testing.T, ds testgen.Dataset, mafs int) Result {
	t.Helper()
	rs := spec1()
	rs.MAFs = mafs
	return execute(t, NewSim(Config{}), ds, rs)
}

func TestPhantomHaltSystem(t *testing.T) {
	for _, state := range []string{"nominal", "ipc-saturated", "survival-plan"} {
		res := runPhantomOnSim(t, phantomFor(t, "XM_halt_system", state), 2)
		if res.RunErr != "" {
			t.Fatalf("%s: %s", state, res.RunErr)
		}
		if res.KernelState != xm.KStateHalted {
			t.Errorf("%s: kernel %v, want HALTED", state, res.KernelState)
		}
		if res.Returned() {
			t.Errorf("%s: XM_halt_system returned", state)
		}
	}
}

func TestPhantomSuspendSelf(t *testing.T) {
	res := runPhantomOnSim(t, phantomFor(t, "XM_suspend_self", "hm-backlog"), 2)
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	if res.PartState != xm.PStateSuspended {
		t.Fatalf("partition %v, want SUSPENDED", res.PartState)
	}
	// The warm-up rogue's HM entry must be visible in the log.
	if len(res.HMEvents) == 0 {
		t.Fatal("hm-backlog state produced no HM entries")
	}
}

func TestPhantomStateChangesContext(t *testing.T) {
	// The ipc-saturated state must actually differ from nominal: under
	// saturation, the TMTC partition has dropped frames.
	nom := runPhantomOnSim(t, phantomFor(t, "XM_hm_open", "nominal"), 2)
	sat := runPhantomOnSim(t, phantomFor(t, "XM_hm_open", "ipc-saturated"), 2)
	if nom.RunErr != "" || sat.RunErr != "" {
		t.Fatal(nom.RunErr, sat.RunErr)
	}
	rcN, _ := nom.LastReturn()
	rcS, _ := sat.LastReturn()
	if rcN != xm.OK || rcS != xm.OK {
		t.Fatalf("hm_open = %v / %v", rcN, rcS)
	}
}

func TestPhantomSurvivalPlanApplies(t *testing.T) {
	res := runPhantomOnSim(t, phantomFor(t, "XM_enable_irqs", "survival-plan"), 2)
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	rc, ok := res.LastReturn()
	if !ok || rc != xm.OK {
		t.Fatalf("enable_irqs under survival plan = %v %v", rc, ok)
	}
}

func TestPhantomInvocationCadence(t *testing.T) {
	res := runPhantomOnSim(t, phantomFor(t, "XM_sparc_get_psr", "nominal"), 3)
	if res.Invocations != 3 || len(res.Returns) != 3 {
		t.Fatalf("invocations=%d returns=%d, want 3/3", res.Invocations, len(res.Returns))
	}
}

func TestDatasetStateRendersInString(t *testing.T) {
	ds := phantomFor(t, "XM_hm_open", "timer-armed")
	if got, want := ds.String(), "XM_hm_open() @ timer-armed"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
