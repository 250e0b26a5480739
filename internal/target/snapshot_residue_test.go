package target

import (
	"testing"

	"xmrobust/internal/inject"
	"xmrobust/internal/sparc"
)

// The in-slot rewind sweep of the TestResetScrubsEverything family at
// the target layer: whatever an execution leg does to the leased machine
// — ordinary runs, crashed simulators, inject peek-poke flips — a slot
// Restore must rewind it to a state the exhaustive VerifyClean scan
// accepts, under the strict pool that re-scans every recycle.

// TestSlotRestoreScrubsInjectedAndCrashedLegs drives the pooled sim
// backend through forced injection plans (some legs crash the simulator
// mid-flight), rewinds each leg in-slot instead of round-tripping the
// pool, and requires the restored machine to pass the full-image scan.
func TestSlotRestoreScrubsInjectedAndCrashedLegs(t *testing.T) {
	sim := NewSim(Config{PoolStrict: true})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	sched, err := inject.NewSchedule(inject.Params{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	crashed := 0
	for _, fn := range []string{"XM_set_timer", "XM_read_sampling_message", "XM_resume_partition"} {
		for rank := int64(0); rank < 4; rank++ {
			ds := dataset(t, fn, rank)
			rs := spec1()
			rs.MAFs = 2
			rs.Inject = sched.Plan(ds)
			slot := sim.Acquire()
			sl, ok := slot.(*simSlot)
			if !ok || sl.m == nil {
				t.Fatal("pooled sim handed out no machine")
			}
			res := sim.Execute(slot, ds, rs)
			if res.SimCrashed {
				crashed++
			}
			// Rewind the leg in-slot: the between-test path of a lease.
			if err := sl.Restore(); err != nil {
				t.Fatalf("%s rank %d: restore after leg: %v", fn, rank, err)
			}
			if err := sl.m.VerifyClean(); err != nil {
				t.Fatalf("%s rank %d (inject %+v): residue after restore: %v",
					fn, rank, rs.Inject, err)
			}
			sim.Release(slot)
		}
	}
	if crashed == 0 {
		t.Log("no simulator crash in the sweep; the crash path rode along untested")
	}
}

// TestSlotRestoreComposesWithInjectPokes pins the Restore/FlipBit
// composition directly: peek-poke upsets landed on a leased machine (the
// inject target's primitives) vanish without trace.
func TestSlotRestoreComposesWithInjectPokes(t *testing.T) {
	sim := NewSim(Config{PoolStrict: true})
	if err := sim.Provision(1); err != nil {
		t.Fatal(err)
	}
	slot := sim.Acquire()
	defer sim.Release(slot)
	sl := slot.(*simSlot)
	m := sl.m

	base := m.Config().RAMBase
	for i := 0; i < 6; i++ {
		m.FlipBit(base+sparc.Addr(i)<<12, uint8(i))
	}
	if err := sl.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyClean(); err != nil {
		t.Fatalf("poke residue survived restore: %v", err)
	}
}
