package target

import (
	"runtime"
	"strings"
	"testing"
	"weak"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/testgen"
)

// datasetCalled finds fn's dataset whose rendering is call.
func datasetCalled(t *testing.T, fn, call string) testgen.Dataset {
	t.Helper()
	f, ok := apispec.Default().Function(fn)
	if !ok {
		t.Fatalf("no hypercall %q", fn)
	}
	m, err := testgen.BuildMatrix(f, dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range m.Datasets() {
		if ds.String() == call {
			return ds
		}
	}
	t.Fatalf("no dataset renders as %s", call)
	return testgen.Dataset{}
}

// TestDiscardedMachineDoesNotOutliveItsPool: a machine whose simulator
// crashed is discarded when its slot is released, and nothing the sim
// backend keeps afterwards, such as a kernel parked for reuse, may hold
// it. Otherwise every crash pins one 18 MiB memory image for as long as
// the backend lives. The backend itself stays alive across the
// collection, so only what it still references counts.
func TestDiscardedMachineDoesNotOutliveItsPool(t *testing.T) {
	sim := NewSim(Config{})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	rs := spec1()
	rs.MAFs = 2
	slot := sim.Acquire()
	m := weak.Make(slot.(*simSlot).m)
	res := sim.ExecuteBatch(slot, []testgen.Dataset{datasetCalled(t, "XM_set_timer", "XM_set_timer(1, 1, 1)")}, rs)
	if !res[0].SimCrashed {
		t.Fatalf("XM_set_timer(1, 1, 1) did not crash the simulator: %+v", res[0])
	}
	sim.Release(slot)
	if st := sim.PoolStats(); st.Discarded != 1 {
		t.Fatalf("pool stats %+v, want the crashed machine discarded", st)
	}
	runtime.GC()
	runtime.GC()
	if m.Value() != nil {
		t.Fatal("the discarded machine is still reachable from the sim backend")
	}
	runtime.KeepAlive(sim)
}

// TestUnprovisionedSimRefuses: the sim backend runs tests only on pooled
// machines, so a slot acquired before Provision fails each test with a
// harness error naming the contract instead of booting a machine aside.
func TestUnprovisionedSimRefuses(t *testing.T) {
	sim := NewSim(Config{})
	slot := sim.Acquire()
	defer sim.Release(slot)
	if res := sim.Execute(slot, dataset(t, "XM_get_time", 0), spec1()); !strings.Contains(res.RunErr, "Acquire before Provision") {
		t.Fatalf("RunErr = %q", res.RunErr)
	}
}
