package target

import (
	"context"
	"math/rand"
	"reflect"
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

// paperSuite is the paper's campaign: every dataset of the exhaustive
// plan over the default header and dictionary.
func paperSuite(t *testing.T) []testgen.Dataset {
	t.Helper()
	suite, err := testgen.Generate(apispec.Default(), dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// TestLeaseTakesAMachinePerTest: every test of a sim lease takes its
// machine from the pool, as a lease of one does, so a crashed machine is
// discarded mid-lease instead of rewound in the slot. One lease of 16
// paper-suite datasets holds the two that crash the simulator
// (XM_set_timer, seq 283 and 285), neither of them last: the pool must
// serve 16 acquires and discard 2 machines, and each result must equal
// the same test run as a lease of one.
func TestLeaseTakesAMachinePerTest(t *testing.T) {
	suite := paperSuite(t)
	lease := suite[275:291]
	rs := spec1()
	rs.MAFs = 2
	for _, seq := range []int{283, 285} {
		if ds := suite[seq]; ds.Func.Name != "XM_set_timer" {
			t.Fatalf("paper suite position %d is %s, want an XM_set_timer dataset", seq, ds)
		}
	}

	sim := NewSim(Config{})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	before := sim.PoolStats()
	slot := sim.Acquire()
	got := sim.ExecuteBatch(slot, lease, rs)
	sim.Release(slot)
	after := sim.PoolStats()
	if gets := after.Allocated + after.Reused - before.Allocated - before.Reused; gets != 16 {
		t.Errorf("a lease of 16 made %d pool acquires, want 16", gets)
	}
	if d := after.Discarded - before.Discarded; d != 2 {
		t.Errorf("a lease holding 2 crashing tests discarded %d machines, want 2", d)
	}

	one := NewSim(Config{})
	if err := one.Provision(1); err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for i, ds := range lease {
		slot := one.Acquire()
		want := one.Execute(slot, ds, rs)
		one.Release(slot)
		if want.SimCrashed {
			crashes++
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s in a lease of 16 differs from a lease of one\nlease of 16: %+v\nlease of 1:  %+v", ds, got[i], want)
		}
	}
	if crashes != 2 {
		t.Fatalf("the lease crashed the simulator %d times, want 2", crashes)
	}
}

// Allocation bounds per test of the paper suite on a recycled sim
// testbed. A test allocates what its Result keeps (resolved values,
// returns, the HM log) and little else; at a lease of one the bound also
// carries the lease's slot and result slice.
const (
	maxAllocsPerTestLease1  = 6
	maxAllocsPerTestLease16 = 4
)

// TestSimExecuteAllocs runs the paper suite at two major frames through
// ExecuteBatch on one provisioned Sim, a lease at a time, and bounds the
// allocations per test: the recycled kernel keeps its slot environments
// and the OBSW state block, so a path that rebuilds either per test
// fails it.
func TestSimExecuteAllocs(t *testing.T) {
	suite := paperSuite(t)
	rs := spec1()
	rs.MAFs = 2
	sim := NewSim(Config{})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lease int
		max   float64
	}{{1, maxAllocsPerTestLease1}, {16, maxAllocsPerTestLease16}} {
		run := func() {
			for i := 0; i < len(suite); i += tc.lease {
				slot := sim.Acquire()
				sim.ExecuteBatch(slot, suite[i:min(i+tc.lease, len(suite))], rs)
				sim.Release(slot)
			}
		}
		got := testing.AllocsPerRun(2, run) / float64(len(suite))
		if got > tc.max {
			t.Errorf("lease of %d: %.2f allocations per test, want at most %v", tc.lease, got, tc.max)
		}
		t.Logf("lease of %d: %.2f allocations per test", tc.lease, got)
	}
}

// TestRecycledKernelMatchesFresh is the residue gate of the recycled
// testbed, whose kernel keeps its slot environments and the OBSW state
// block from test to test. The paper suite runs in a seeded shuffled
// order on one recycled Sim, at leases of 1 and 7 and once more with
// coverage on, and every Result must equal the same dataset's on a
// freshly provisioned Sim. The suite's XM_reset_partition and
// XM_reset_system datasets re-boot guests mid-test over the reused block.
func TestRecycledKernelMatchesFresh(t *testing.T) {
	suite := paperSuite(t)
	plain := spec1()
	plain.MAFs = 2
	covered := plain
	covered.Coverage = true
	var want [2][]*Result // by coverage, then suite position
	for c := range want {
		want[c] = make([]*Result, len(suite))
	}
	fresh := func(x int, rs RunSpec) Result {
		c := 0
		if rs.Coverage {
			c = 1
		}
		if want[c][x] == nil {
			sim := NewSim(Config{})
			if err := sim.Provision(1); err != nil {
				t.Fatal(err)
			}
			slot := sim.Acquire()
			r := sim.Execute(slot, suite[x], rs)
			sim.Release(slot)
			want[c][x] = &r
		}
		return *want[c][x]
	}

	sim := NewSim(Config{})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	for _, pass := range []struct {
		lease int
		rs    RunSpec
	}{{1, plain}, {7, plain}, {7, covered}} {
		order := rng.Perm(len(suite))
		batch := make([]testgen.Dataset, 0, pass.lease)
		for i := 0; i < len(order); i += pass.lease {
			lease := order[i:min(i+pass.lease, len(order))]
			batch = batch[:0]
			for _, x := range lease {
				batch = append(batch, suite[x])
			}
			slot := sim.Acquire()
			got := sim.ExecuteBatch(slot, batch, pass.rs)
			sim.Release(slot)
			for j, x := range lease {
				if w := fresh(x, pass.rs); !reflect.DeepEqual(got[j], w) {
					t.Fatalf("lease of %d, coverage %v: %s on the recycled kernel differs from a fresh one\nrecycled: %+v\nfresh:    %+v",
						pass.lease, pass.rs.Coverage, suite[x], got[j], w)
				}
			}
		}
	}
}
