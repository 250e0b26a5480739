package campaign

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/inject"
	"xmrobust/internal/store"
	"xmrobust/internal/testgen"
)

// runInject streams one inject:sim campaign into dir.
func runInject(t *testing.T, opts Options, eo EngineOptions) EngineStats {
	t.Helper()
	plan, ropts, err := BuildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	eo.Options = ropts
	stats, err := StreamPlan(plan, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestStreamInjectResumeExactReplay mirrors the feedback plan's
// exact-replay contract for the SEU subsystem: a fixed-seed inject:sim
// campaign interrupted at a checkpoint must resume to shard records
// byte-identical to an uninterrupted run's — the schedule being a pure
// function of (seed, dataset), no injector state survives or needs to.
func TestStreamInjectResumeExactReplay(t *testing.T) {
	const n = 40
	opts := Options{Plan: "rand:40", Seed: 5, Workers: 2, MAFs: 1, Target: "inject:sim"}

	refDir := t.TempDir()
	stats := runInject(t, opts, EngineOptions{
		ShardDir:       refDir,
		CheckpointPath: filepath.Join(refDir, "checkpoint.jsonl"),
	})
	if stats.Executed != n {
		t.Fatalf("reference executed %d, want %d", stats.Executed, n)
	}

	intDir := t.TempDir()
	eo := EngineOptions{
		ShardDir:       intDir,
		CheckpointPath: filepath.Join(intDir, "checkpoint.jsonl"),
	}
	eo.Limit = 25
	runInject(t, opts, eo)
	eo.Limit = 0
	eo.Resume = true
	stats = runInject(t, opts, eo)
	if stats.Skipped != 25 || stats.Executed != 15 {
		t.Fatalf("resume skipped %d executed %d, want 25 / 15", stats.Skipped, stats.Executed)
	}

	ref, err := CollectShardsIn(store.Local(), refDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectShardsIn(store.Local(), intDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != n || len(got) != n {
		t.Fatalf("records: ref %d, interrupted %d, want %d", len(ref), len(got), n)
	}
	injected := 0
	for i := range ref {
		a, _ := json.Marshal(ref[i])
		b, _ := json.Marshal(got[i])
		if string(a) != string(b) {
			t.Fatalf("record %d diverges between uninterrupted and resumed runs:\n  %s\n  %s", i, a, b)
		}
		if ref[i].Injection != nil {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("a rate-1 inject campaign produced no injection records")
	}
}

// TestInjectResumeRefusesScheduleMismatch: the checkpoint records the
// schedule signature next to the plan fingerprint and target name, and a
// resume under any other schedule must be refused by name, not spliced.
func TestInjectResumeRefusesScheduleMismatch(t *testing.T) {
	opts := Options{Plan: "rand:10", Seed: 5, Workers: 2, MAFs: 1, Target: "inject:sim"}
	dir := t.TempDir()
	eo := EngineOptions{
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	eo.Limit = 4
	runInject(t, opts, eo)

	resume := eo
	resume.Limit = 0
	resume.Resume = true
	bad := opts
	bad.Inject = inject.Params{Sites: []string{inject.SiteRAM}}
	plan, ropts, err := BuildPlan(bad)
	if err != nil {
		t.Fatal(err)
	}
	resume.Options = ropts
	_, err = StreamPlan(plan, resume, nil)
	if err == nil {
		t.Fatal("resume under a different injection schedule accepted")
	}
	if !strings.Contains(err.Error(), "injection schedule") || !strings.Contains(err.Error(), "sites=ram") {
		t.Fatalf("refusal does not name the schedules: %v", err)
	}

	// The matching schedule still resumes.
	stats := runInject(t, opts, resume)
	if stats.Skipped != 4 || stats.Executed != 6 {
		t.Fatalf("matching resume skipped %d executed %d, want 4 / 6", stats.Skipped, stats.Executed)
	}
}

// TestDiffWrappedInjectCheckpointsSchedule: diff:inject:sim,phantom is
// the documented composition order, and its checkpoint must carry the
// inject leg's schedule signature — the Diff composite forwards it — so
// a mismatched-schedule resume is refused there too.
func TestDiffWrappedInjectCheckpointsSchedule(t *testing.T) {
	opts := Options{Plan: "rand:8", Seed: 5, Workers: 2, MAFs: 1,
		Target: "diff:inject:sim,phantom", Inject: inject.Params{Rate: 0.9}}
	dir := t.TempDir()
	eo := EngineOptions{
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	eo.Limit = 3
	runInject(t, opts, eo)

	resume := eo
	resume.Limit = 0
	resume.Resume = true
	bad := opts
	bad.Inject.Rate = 0.2
	plan, ropts, err := BuildPlan(bad)
	if err != nil {
		t.Fatal(err)
	}
	resume.Options = ropts
	if _, err := StreamPlan(plan, resume, nil); err == nil ||
		!strings.Contains(err.Error(), "rate=0.9") || !strings.Contains(err.Error(), "rate=0.2") {
		t.Fatalf("diff-wrapped inject resume under a changed schedule not refused by name: %v", err)
	}

	stats := runInject(t, opts, resume)
	if stats.Skipped != 3 || stats.Executed != 5 {
		t.Fatalf("matching resume skipped %d executed %d, want 3 / 5", stats.Skipped, stats.Executed)
	}
}

// TestInjectionRecordRoundTripsThroughLog: the injection record written
// to a shard must reconstruct into the identical in-memory record —
// site/bit/cycle/outcome are analysis inputs on the log-driven path.
func TestInjectionRecordRoundTrips(t *testing.T) {
	rec := &inject.Injection{
		Site: inject.SiteMMU, Phase: inject.PhaseMid, Bit: 17, Frame: 1,
		Addr: 0x40001000, Cycle: 250000, Applied: true,
		Outcome: inject.OutcomeDetected, Delta: "hm_events: 0 vs 2",
	}
	var r Result
	r.Dataset = testgen.Dataset{Func: apispec.Function{Name: "XM_get_time"}}
	r.Injection = rec
	out := ToRecord(3, r)
	if out.Injection != rec {
		t.Fatal("ToRecord did not thread the injection record")
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONRecord
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	res, err := back.Result(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injection == nil || *res.Injection != *rec {
		t.Fatalf("round trip mangled the record: %+v", res.Injection)
	}
}
