package eagleeye

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"xmrobust/internal/xm"
	"xmrobust/internal/xmcfg"
)

func TestConfigMatchesPaperTestbed(t *testing.T) {
	cfg := Config()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// "defining the OBSW into five partitions over a cyclic major frame
	// of 250ms" with the FDIR as the only system partition.
	if len(cfg.Partitions) != 5 {
		t.Fatalf("partitions = %d, want 5", len(cfg.Partitions))
	}
	if cfg.Plans[0].MajorFrame != 250000 {
		t.Fatalf("major frame = %dus, want 250000", cfg.Plans[0].MajorFrame)
	}
	systems := 0
	for _, p := range cfg.Partitions {
		if p.System {
			systems++
			if p.ID != FDIR || p.Name != "FDIR" {
				t.Errorf("system partition is %q (id %d), want FDIR", p.Name, p.ID)
			}
		}
	}
	if systems != 1 {
		t.Fatalf("system partitions = %d, want exactly 1 (FDIR)", systems)
	}
	// Every partition gets a slot in the nominal plan.
	seen := map[int]bool{}
	for _, s := range cfg.Plans[0].Slots {
		seen[s.PartitionID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("nominal plan schedules %d partitions, want 5", len(seen))
	}
}

func TestConfigSurvivesXMLRoundTrip(t *testing.T) {
	cfg := Config()
	out, err := xmcfg.Emit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := xmcfg.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, cfg2) {
		t.Fatal("EagleEye config does not survive the XM_CF XML round trip")
	}
}

func TestOBSWRunsNominalMission(t *testing.T) {
	k, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(8); err != nil {
		t.Fatal(err)
	}
	// No faults: the health monitor log must be clean.
	if entries := k.HMEntries(); len(entries) != 0 {
		t.Fatalf("nominal mission produced HM events: %v", entries)
	}
	rep, err := Report(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 8 {
		t.Errorf("FDIR cycles = %d, want 8", rep.Cycles)
	}
	if rep.PartitionsUp != 5 {
		t.Errorf("partitions up = %d, want 5", rep.PartitionsUp)
	}
	if rep.Recovered != 0 {
		t.Errorf("recovered = %d, want 0 in a nominal run", rep.Recovered)
	}
	sent, overflow, err := TMTCStats(k)
	if err != nil {
		t.Fatal(err)
	}
	if sent == 0 {
		t.Error("TMTC sent no downlink frames")
	}
	if rep.FramesDrained == 0 {
		t.Error("FDIR drained no downlink frames")
	}
	_ = overflow // overflow is legal under burst conditions
	if !strings.Contains(k.Machine().UART().String(), "[FDIR] cycle=") {
		t.Error("FDIR console heartbeat missing from UART")
	}
}

func TestTelemetryFlowsAcrossPartitions(t *testing.T) {
	k, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(4); err != nil {
		t.Fatal(err)
	}
	sent, _, err := TMTCStats(k)
	if err != nil {
		t.Fatal(err)
	}
	// Two sampling sources drained once per frame after warm-up.
	if sent < 4 {
		t.Fatalf("downlink frames = %d, want >= 4", sent)
	}
}

func TestFDIRRecoversHaltedPartition(t *testing.T) {
	k, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	// Replace PAYLOAD with a faulty program that violates spatial
	// separation on its third cycle.
	steps := 0
	faulty := faultyProg{step: func(env xm.Env) bool {
		steps++
		if steps == 3 {
			env.Write(0x40000000, []byte{1}) // outside its area: halted by HM
		}
		env.Compute(1000)
		return false
	}}
	if err := k.AttachProgram(Payload, &faulty); err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(6); err != nil {
		t.Fatal(err)
	}
	rep, err := Report(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered == 0 {
		t.Fatal("FDIR did not recover the halted PAYLOAD partition")
	}
	if rep.HMEntriesSeen == 0 {
		t.Fatal("FDIR read no HM entries despite the spatial violation")
	}
	st, _ := k.PartitionStatus(Payload)
	if st.BootCount < 2 {
		t.Fatalf("PAYLOAD boot count = %d, want >= 2 after FDIR recovery", st.BootCount)
	}
}

// faultyProg is a minimal Program for fault-injection into the testbed.
type faultyProg struct {
	step func(env xm.Env) bool
}

func (f *faultyProg) Boot(env xm.Env)      {}
func (f *faultyProg) Step(env xm.Env) bool { return f.step(env) }

func TestSurvivalPlanSwitch(t *testing.T) {
	k, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(1); err != nil {
		t.Fatal(err)
	}
	// Ask FDIR's kernel to switch to the survival plan via a scripted
	// FDIR replacement.
	switched := false
	prog := &faultyProg{step: func(env xm.Env) bool {
		if !switched {
			switched = true
			ptr := areaBase(FDIR)
			if rc := env.Hypercall(xm.NrSwitchSchedPlan, 1, uint64(ptr)); rc != xm.OK {
				t.Errorf("switch_sched_plan: %v", rc)
			}
		}
		return false
	}}
	if err := k.AttachProgram(FDIR, prog); err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(2); err != nil {
		t.Fatal(err)
	}
	if k.Status().CurrentPlan != 1 {
		t.Fatalf("plan = %d, want survival plan 1", k.Status().CurrentPlan)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (FDIRReport, uint64) {
		k, err := NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.RunMajorFrames(5); err != nil {
			t.Fatal(err)
		}
		rep, _ := Report(k)
		return rep, k.HypercallCount()
	}
	r1, h1 := run()
	r2, h2 := run()
	if r1 != r2 || h1 != h2 {
		t.Fatalf("EagleEye runs are not deterministic: %+v/%d vs %+v/%d", r1, h1, r2, h2)
	}
}

// TestRecycledOBSWMatchesFresh: AttachOBSW on a recycled kernel reuses
// the OBSW state block parked on it, zeroed, so the mission it then
// flies observes what a newly built system's does: FDIR's report, the
// telemetry counters, the HM log and the console.
func TestRecycledOBSWMatchesFresh(t *testing.T) {
	type mission struct {
		rep            FDIRReport
		sent, overflow uint32
		hm             []xm.HMLogEntry
		console        string
	}
	fly := func(k *xm.Kernel) mission {
		if err := k.RunMajorFrames(5); err != nil {
			t.Fatal(err)
		}
		var m mission
		var err error
		if m.rep, err = Report(k); err != nil {
			t.Fatal(err)
		}
		if m.sent, m.overflow, err = TMTCStats(k); err != nil {
			t.Fatal(err)
		}
		m.hm, m.console = k.HMEntries(), k.Machine().UART().String()
		return m
	}
	fresh, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	want := fly(fresh)
	k, err := NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	fly(k)
	k.Machine().Reset()
	k.Recycle(k.Machine(), xm.LegacyFaults(), nil)
	if err := AttachOBSW(k); err != nil {
		t.Fatal(err)
	}
	if got := fly(k); !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled mission differs from a fresh one:\nrecycled: %+v\nfresh:    %+v", got, want)
	}
}

func TestShippedXMLMatchesConfig(t *testing.T) {
	data, err := os.ReadFile("../../configs/eagleeye.xml")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := xmcfg.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, Config()) {
		t.Fatal("configs/eagleeye.xml has drifted from eagleeye.Config()")
	}
}
