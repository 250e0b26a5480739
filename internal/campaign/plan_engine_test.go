package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/testgen"
)

// planHeader restricts the default spec to a few quick hypercalls so
// plan-level engine tests stay fast.
func planHeader(t *testing.T, funcs ...string) *apispec.Header {
	t.Helper()
	keep := map[string]bool{}
	for _, f := range funcs {
		keep[f] = true
	}
	h := apispec.Default()
	for i := range h.Functions {
		if !keep[h.Functions[i].Name] {
			h.Functions[i].Tested = "NO"
		}
	}
	return h
}

func testPlan(t *testing.T, spec string, seed int64, funcs ...string) testgen.Plan {
	t.Helper()
	p, err := testgen.NewPlan(spec, planHeader(t, funcs...), dict.Builtin(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamPlanMatchesSlice: executing a lazy plan must yield exactly the
// results of executing its materialised slice — the engine consumes the
// stream, not a copy of it.
func TestStreamPlanMatchesSlice(t *testing.T) {
	plan := testPlan(t, "pairwise", 0, "XM_set_timer", "XM_get_time")
	opts := Options{Workers: 4}

	fromPlan := make([]Result, plan.Len())
	if _, err := StreamPlan(plan, EngineOptions{Options: opts}, func(pos int, r Result, _ []byte) {
		fromPlan[pos] = r
	}); err != nil {
		t.Fatal(err)
	}
	fromSlice := RunDatasets(testgen.Materialize(plan), opts)
	if len(fromPlan) != len(fromSlice) {
		t.Fatalf("plan executed %d tests, slice %d", len(fromPlan), len(fromSlice))
	}
	for i := range fromPlan {
		if fromPlan[i].Dataset.String() != fromSlice[i].Dataset.String() {
			t.Fatalf("test %d: plan ran %s, slice %s", i, fromPlan[i].Dataset, fromSlice[i].Dataset)
		}
	}
}

// TestPlanCheckpointResume: an interrupted plan-streamed campaign resumes
// to a merged log byte-identical to the uninterrupted run's.
func TestPlanCheckpointResume(t *testing.T) {
	plan := testPlan(t, "pairwise", 0, "XM_set_timer", "XM_reset_system")
	opts := Options{Workers: 2}

	full := t.TempDir()
	if _, err := StreamPlan(plan, EngineOptions{
		Options: opts, ShardDir: full, CheckpointPath: filepath.Join(full, "ckpt.jsonl"),
	}, nil); err != nil {
		t.Fatal(err)
	}

	split := t.TempDir()
	eo := EngineOptions{Options: opts, ShardDir: split,
		CheckpointPath: filepath.Join(split, "ckpt.jsonl"), Limit: plan.Len() / 2}
	if _, err := StreamPlan(plan, eo, nil); err != nil {
		t.Fatal(err)
	}
	eo.Limit = 0
	eo.Resume = true
	stats, err := StreamPlan(plan, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != plan.Len()/2 {
		t.Fatalf("resume skipped %d, want %d", stats.Skipped, plan.Len()/2)
	}

	var a, b bytes.Buffer
	if _, err := MergeShards(full, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(split, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("merged logs differ between uninterrupted and resumed plan campaigns")
	}
}

// TestResumeRefusesDifferentPlan: a campaign's shard records are
// positions in ONE plan's stream; resuming any other plan must fail with
// an error naming the checkpointed plan and fingerprint, not produce a
// silently mixed log.
func TestResumeRefusesDifferentPlan(t *testing.T) {
	pairwise := testPlan(t, "pairwise", 0, "XM_set_timer", "XM_reset_system")
	boundary := testPlan(t, "boundary", 0, "XM_set_timer", "XM_reset_system")

	dir := t.TempDir()
	eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir,
		CheckpointPath: filepath.Join(dir, "ckpt.jsonl"), Limit: 3}
	if _, err := StreamPlan(pairwise, eo, nil); err != nil {
		t.Fatal(err)
	}
	eo.Limit = 0
	eo.Resume = true
	_, err := StreamPlan(boundary, eo, nil)
	if err == nil {
		t.Fatal("resume under a different plan accepted")
	}
	for _, want := range []string{"pairwise", pairwise.Fingerprint(), "boundary"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not name %q", err, want)
		}
	}
	// The matching plan still resumes.
	if _, err := StreamPlan(pairwise, eo, nil); err != nil {
		t.Fatalf("matching plan refused: %v", err)
	}
}

// TestResumeRefusesDifferentTarget: a checkpoint records the execution
// backend its shard logs came from; resuming on any other backend must
// fail with an error naming both, not splice two targets' logs into one
// campaign.
func TestResumeRefusesDifferentTarget(t *testing.T) {
	plan := testPlan(t, "boundary", 0, "XM_set_timer", "XM_reset_system")

	dir := t.TempDir()
	eo := EngineOptions{Options: Options{Workers: 2, Target: "sim"}, ShardDir: dir,
		CheckpointPath: filepath.Join(dir, "ckpt.jsonl"), Limit: 3}
	if _, err := StreamPlan(plan, eo, nil); err != nil {
		t.Fatal(err)
	}
	eo.Limit = 0
	eo.Resume = true
	eo.Options.Target = "phantom"
	_, err := StreamPlan(plan, eo, nil)
	if err == nil {
		t.Fatal("resume under a different target accepted")
	}
	for _, want := range []string{`"sim"`, `"phantom"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not name %s", err, want)
		}
	}
	// The matching target still resumes.
	eo.Options.Target = "sim"
	if _, err := StreamPlan(plan, eo, nil); err != nil {
		t.Fatalf("matching target refused: %v", err)
	}
}

// TestResumeRefusesDifferentSeed: rand:N under another seed is another
// plan — same strategy string, different fingerprint.
func TestResumeRefusesDifferentSeed(t *testing.T) {
	seed1 := testPlan(t, "rand:6", 1, "XM_set_timer", "XM_reset_system")
	seed2 := testPlan(t, "rand:6", 2, "XM_set_timer", "XM_reset_system")

	dir := t.TempDir()
	eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir,
		CheckpointPath: filepath.Join(dir, "ckpt.jsonl"), Limit: 2}
	if _, err := StreamPlan(seed1, eo, nil); err != nil {
		t.Fatal(err)
	}
	eo.Limit = 0
	eo.Resume = true
	if _, err := StreamPlan(seed2, eo, nil); err == nil {
		t.Fatal("resume under a different seed accepted")
	} else if !strings.Contains(err.Error(), seed1.Fingerprint()) {
		t.Errorf("mismatch error %q does not name the checkpointed fingerprint %s", err, seed1.Fingerprint())
	}
}

// TestResumeRefusesLegacyCheckpoint: a checkpoint written before plan
// recording (no plan/plan_fp header fields) cannot be safely resumed and
// must say so explicitly rather than print blank identifiers.
func TestResumeRefusesLegacyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	if err := os.WriteFile(ckpt,
		[]byte(`{"campaign":"tests=4|mafs=2|stress=false|faults={}"}`+"\n"+`{"seq":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	plan := testPlan(t, "exhaustive", 0, "XM_set_timer")
	eo := EngineOptions{Options: Options{Workers: 1}, ShardDir: dir,
		CheckpointPath: ckpt, Resume: true}
	_, err := StreamPlan(plan, eo, nil)
	if err == nil {
		t.Fatal("legacy checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "predates plan recording") {
		t.Fatalf("legacy checkpoint error = %q", err)
	}
}

// TestDatasetSliceFingerprint: slice sources fingerprint their content, so
// checkpoints guard pre-built lists exactly like plans.
func TestDatasetSliceFingerprint(t *testing.T) {
	plan := testPlan(t, "exhaustive", 0, "XM_set_timer")
	all := testgen.Materialize(plan)
	a := DatasetSlice(all).Fingerprint()
	if b := DatasetSlice(all).Fingerprint(); a != b {
		t.Fatal("fingerprint unstable")
	}
	if c := DatasetSlice(all[:len(all)-1]).Fingerprint(); a == c {
		t.Fatal("fingerprint ignores content")
	}
}
