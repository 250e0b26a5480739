package target

import (
	"context"
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

// TestCancelledLeaseAborts: a batched sim lease checks its context before
// each test after the first, so a cancel stops it after the test in
// hand, and the rest of the lease comes back Aborted with the context's
// error. A lease of one runs its test whatever the context says.
func TestCancelledLeaseAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim := NewSim(Config{Ctx: ctx})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	batch := make([]testgen.Dataset, 16)
	for i := range batch {
		batch[i] = dataset(t, "XM_get_time", 0)
	}
	slot := sim.Acquire()
	defer sim.Release(slot)
	rs := sim.ExecuteBatch(slot, batch, spec1())
	if rs[0].Aborted || rs[0].RunErr != "" {
		t.Fatalf("the lease's first test: Aborted %v, RunErr %q; want it executed", rs[0].Aborted, rs[0].RunErr)
	}
	for i, r := range rs[1:] {
		if !r.Aborted || r.RunErr != context.Canceled.Error() || r.Dataset.String() != batch[i+1].String() {
			t.Fatalf("test %d of the lease: Aborted %v, RunErr %q; want Aborted with %q", i+1, r.Aborted, r.RunErr, context.Canceled)
		}
	}
	if r := sim.Execute(slot, batch[0], spec1()); r.Aborted || r.RunErr != "" {
		t.Fatalf("a lease of one: Aborted %v, RunErr %q; want it executed", r.Aborted, r.RunErr)
	}
}
