package campaign

import (
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/obs"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// datasetFor builds the dataset of one hypercall whose values match the
// given raw strings.
func datasetFor(t *testing.T, fn string, raws ...string) testgen.Dataset {
	t.Helper()
	h := apispec.Default()
	f, ok := h.Function(fn)
	if !ok {
		t.Fatalf("unknown function %s", fn)
	}
	m, err := testgen.BuildMatrix(f, dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range m.Datasets() {
		if len(ds.Values) != len(raws) {
			continue
		}
		match := true
		for i, r := range raws {
			if ds.Values[i].Raw != r {
				match = false
				break
			}
		}
		if match {
			return ds
		}
	}
	t.Fatalf("no dataset %s%v", fn, raws)
	return testgen.Dataset{}
}

func TestRunOneNominalCall(t *testing.T) {
	ds := datasetFor(t, "XM_get_system_status", "VALID")
	res := RunOne(ds, Options{})
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	if !res.Returned() || res.Invocations != DefaultMAFs {
		t.Fatalf("invocations=%d returns=%v", res.Invocations, res.Returns)
	}
	for _, rc := range res.Returns {
		if rc != xm.OK {
			t.Fatalf("returns = %v", res.Returns)
		}
	}
	if res.SimCrashed || res.KernelState != xm.KStateRunning {
		t.Fatal("nominal call damaged the system")
	}
	if res.ColdResets+res.WarmResets != 0 {
		t.Fatal("nominal call reset the system")
	}
}

func TestRunOneInvalidParamCall(t *testing.T) {
	ds := datasetFor(t, "XM_get_system_status", "NULL")
	res := RunOne(ds, Options{})
	rc, ok := res.LastReturn()
	if !ok || rc != xm.InvalidParam {
		t.Fatalf("return = %v %v, want XM_INVALID_PARAM", rc, ok)
	}
}

func TestRunOneResetSystemIssue(t *testing.T) {
	ds := datasetFor(t, "XM_reset_system", "2")
	res := RunOne(ds, Options{})
	if res.Returned() {
		t.Fatal("XM_reset_system(2) returned on the legacy kernel")
	}
	if res.ColdResets == 0 {
		t.Fatal("no cold reset observed")
	}
}

func TestRunOneTimerHalt(t *testing.T) {
	ds := datasetFor(t, "XM_set_timer", "0", "1", "1")
	res := RunOne(ds, Options{})
	if res.KernelState != xm.KStateHalted {
		t.Fatalf("kernel state = %v, want HALTED", res.KernelState)
	}
	if res.RunErr != "" {
		t.Fatalf("kernel halt is an outcome, not a harness error: %q", res.RunErr)
	}
}

func TestRunOneSimulatorCrash(t *testing.T) {
	ds := datasetFor(t, "XM_set_timer", "1", "1", "1")
	res := RunOne(ds, Options{})
	if !res.SimCrashed {
		t.Fatal("simulator survived XM_set_timer(1,1,1) on the legacy kernel")
	}
	if res.RunErr != "" {
		t.Fatalf("sim crash is an outcome, not a harness error: %q", res.RunErr)
	}
}

func TestRunOneMulticallOverrun(t *testing.T) {
	ds := datasetFor(t, "XM_multicall", "VALID", "VALID_MID")
	res := RunOne(ds, Options{})
	if res.PartState != xm.PStateSuspended {
		t.Fatalf("partition state = %v, want SUSPENDED (temporal violation)", res.PartState)
	}
	found := false
	for _, e := range res.HMEvents {
		if e.Event == xm.HMEvSchedOverrun {
			found = true
		}
	}
	if !found {
		t.Fatal("no overrun in the HM log")
	}
}

func TestRunOnePatchedKernelCleans(t *testing.T) {
	for _, raws := range [][]string{
		{"2"}, {"16"}, {"4294967295"},
	} {
		ds := datasetFor(t, "XM_reset_system", raws...)
		res := RunOne(ds, Options{Faults: xm.PatchedFaults()})
		rc, ok := res.LastReturn()
		if !ok || rc != xm.InvalidParam {
			t.Fatalf("patched XM_reset_system(%v) = %v %v", raws, rc, ok)
		}
		if res.ColdResets+res.WarmResets != 0 {
			t.Fatal("patched kernel reset")
		}
	}
}

func TestRunOneIsDeterministic(t *testing.T) {
	ds := datasetFor(t, "XM_memory_copy", "VALID", "VALID_MID", "4096")
	a := RunOne(ds, Options{})
	b := RunOne(ds, Options{})
	if len(a.Returns) != len(b.Returns) {
		t.Fatal("nondeterministic return count")
	}
	for i := range a.Returns {
		if a.Returns[i] != b.Returns[i] {
			t.Fatal("nondeterministic returns")
		}
	}
	if len(a.HMEvents) != len(b.HMEvents) {
		t.Fatal("nondeterministic HM log")
	}
}

func TestRunDatasetsParallelMatchesSerial(t *testing.T) {
	h := apispec.Default()
	f, _ := h.Function("XM_reset_system")
	m, err := testgen.BuildMatrix(f, dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	datasets := m.Datasets()
	serial := RunDatasets(datasets, Options{Workers: 1})
	parallel := RunDatasets(datasets, Options{Workers: 8})
	if len(serial) != len(parallel) {
		t.Fatal("length mismatch")
	}
	for i := range serial {
		if serial[i].ColdResets != parallel[i].ColdResets ||
			serial[i].WarmResets != parallel[i].WarmResets ||
			len(serial[i].Returns) != len(parallel[i].Returns) {
			t.Fatalf("case %d differs between serial and parallel runs", i)
		}
	}
}

// TestProgressCallback: the progress tracker behind -progress and
// /progress counts every test of a campaign once, and tallies its
// outcome.
func TestProgressCallback(t *testing.T) {
	h := apispec.Default()
	f, _ := h.Function("XM_multicall")
	m, _ := testgen.BuildMatrix(f, dict.Builtin())
	o := obs.New()
	if _, err := Stream(m.Datasets(), EngineOptions{Options: Options{Workers: 4}, Obs: o}, nil); err != nil {
		t.Fatal(err)
	}
	s := o.Prog().Snapshot()
	if s.Done != 9 || s.Total != 9 {
		t.Fatalf("progress = %d/%d, want 9/9", s.Done, s.Total)
	}
	var outcomes int64
	for _, n := range s.Outcomes {
		outcomes += n
	}
	if outcomes != 9 {
		t.Fatalf("progress tallied %d outcomes, want 9", outcomes)
	}
}

func TestStressOptionStillFindsIssues(t *testing.T) {
	ds := datasetFor(t, "XM_reset_system", "16")
	res := RunOne(ds, Options{Stress: true})
	if res.ColdResets == 0 {
		t.Fatal("stress preload masked the reset issue")
	}
}

func TestRunOneUnknownFunction(t *testing.T) {
	ds := testgen.Dataset{Func: apispec.Function{Name: "XM_nonexistent"}}
	res := RunOne(ds, Options{})
	if res.RunErr == "" {
		t.Fatal("unknown hypercall accepted")
	}
}

func TestReturnedSemantics(t *testing.T) {
	r := Result{}
	if r.Returned() {
		t.Error("zero result reports returned")
	}
	r.Invocations = 2
	r.Returns = []xm.RetCode{xm.OK}
	if r.Returned() {
		t.Error("partial returns report returned")
	}
	r.Returns = append(r.Returns, xm.NoAction)
	if !r.Returned() {
		t.Error("full returns report not-returned")
	}
	rc, ok := r.LastReturn()
	if !ok || rc != xm.NoAction {
		t.Errorf("LastReturn = %v %v", rc, ok)
	}
}
