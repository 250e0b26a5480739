package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xmrobust/internal/corpus"
	"xmrobust/internal/store"
)

// runFeedback streams one feedback campaign and returns the executed
// datasets by position plus the plan's loop stats.
func runFeedback(t *testing.T, opts Options, eo EngineOptions) (map[int]string, corpus.Stats, EngineStats) {
	t.Helper()
	plan, ropts, err := BuildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := plan.(*corpus.FeedbackPlan)
	if !ok {
		t.Fatalf("plan %q is not a feedback plan", plan.Strategy())
	}
	defer fp.Close()
	eo.Options = ropts
	var mu sync.Mutex
	got := map[int]string{}
	stats, err := StreamPlan(plan, eo, func(pos int, r Result, _ []byte) {
		mu.Lock()
		defer mu.Unlock()
		got[pos] = r.Dataset.String()
		if r.Cover == nil {
			t.Errorf("test %d has no coverage map", pos)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, fp.Stats(), stats
}

func TestStreamFeedbackReproducible(t *testing.T) {
	opts := Options{Plan: "feedback:60", Seed: 11, Workers: 4}
	a, sa, _ := runFeedback(t, opts, EngineOptions{})
	b, sb, _ := runFeedback(t, opts, EngineOptions{})
	if len(a) != 60 || len(b) != 60 {
		t.Fatalf("executed %d / %d tests, want 60", len(a), len(b))
	}
	for pos := 0; pos < 60; pos++ {
		if a[pos] != b[pos] {
			t.Fatalf("position %d differs across identically seeded runs:\n  %s\n  %s", pos, a[pos], b[pos])
		}
	}
	if sa.Edges != sb.Edges || sa.Corpus != sb.Corpus {
		t.Fatalf("loop stats diverge: %+v vs %+v", sa, sb)
	}
	if sa.Edges == 0 || sa.Corpus == 0 || sa.Executed != 60 {
		t.Fatalf("degenerate loop stats: %+v", sa)
	}
}

func TestStreamFeedbackCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	eoBase := EngineOptions{
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
	}
	opts := Options{Plan: "feedback:50", Seed: 3, Workers: 2}

	// Phase 1: budgeted run covering part of the campaign (the seed
	// region is 25 tests; a 20-test budget stops mid-seeds).
	eo := eoBase
	eo.Limit = 20
	_, _, stats := runFeedback(t, opts, eo)
	if stats.Executed != 20 {
		t.Fatalf("phase 1 executed %d, want 20", stats.Executed)
	}

	// Phase 2: resume to completion. A fresh plan instance rebuilds its
	// frontier from the shard records' coverage.
	eo = eoBase
	eo.Resume = true
	_, st, stats := runFeedback(t, opts, eo)
	if stats.Skipped != 20 || stats.Executed != 30 {
		t.Fatalf("phase 2 skipped %d executed %d, want 20 / 30", stats.Skipped, stats.Executed)
	}
	if st.Executed != 50 {
		t.Fatalf("loop folded %d results, want all 50 (replayed + live)", st.Executed)
	}
	if st.Edges == 0 {
		t.Fatal("resumed loop has an empty frontier despite replay")
	}
	records := mergedRecords(t, store.Local(), dir)
	if len(records) != 50 {
		t.Fatalf("shards hold %d unique records, want 50", len(records))
	}
	for _, rec := range records {
		if len(rec.Cover) == 0 {
			t.Fatalf("record %d carries no coverage", rec.Seq)
		}
	}

	// A mismatched seed must refuse to resume (different fingerprint).
	bad := opts
	bad.Seed = 4
	plan, ropts, err := BuildPlan(bad)
	if err != nil {
		t.Fatal(err)
	}
	eo = eoBase
	eo.Resume = true
	eo.Options = ropts
	if _, err := StreamPlan(plan, eo, nil); err == nil {
		t.Fatal("resume under a different seed must fail")
	}
}

// TestStreamFeedbackResumeExactReplay interrupts a feedback campaign in
// the BRED region (past the seeds) and requires the resumed run to
// produce byte-identical shard records to an uninterrupted run — the
// rng state, emitted-set and corpus of the interrupted run are
// recomputed from the replayed coverage, corpus file included.
func TestStreamFeedbackResumeExactReplay(t *testing.T) {
	const n = 60 // 30 seeds + 30 bred
	opts := Options{Plan: "feedback:60", Seed: 3, Workers: 2}

	// Reference: one uninterrupted run.
	refDir := t.TempDir()
	refOpts := opts
	refOpts.Corpus = filepath.Join(refDir, "corpus.jsonl")
	_, _, stats := runFeedback(t, refOpts, EngineOptions{
		ShardDir:       refDir,
		CheckpointPath: filepath.Join(refDir, "checkpoint.jsonl"),
	})
	if stats.Executed != n {
		t.Fatalf("reference executed %d, want %d", stats.Executed, n)
	}

	// Interrupted at test 45 — 15 tests into the bred region — then
	// resumed to completion by a fresh plan instance.
	intDir := t.TempDir()
	intOpts := opts
	intOpts.Corpus = filepath.Join(intDir, "corpus.jsonl")
	eo := EngineOptions{
		ShardDir:       intDir,
		CheckpointPath: filepath.Join(intDir, "checkpoint.jsonl"),
	}
	eo.Limit = 45
	runFeedback(t, intOpts, eo)
	eo.Limit = 0
	eo.Resume = true
	_, _, stats = runFeedback(t, intOpts, eo)
	if stats.Skipped != 45 || stats.Executed != 15 {
		t.Fatalf("resume skipped %d executed %d, want 45 / 15", stats.Skipped, stats.Executed)
	}

	ref := mergedRecords(t, store.Local(), refDir)
	got := mergedRecords(t, store.Local(), intDir)
	if len(ref) != n || len(got) != n {
		t.Fatalf("records: ref %d, interrupted %d, want %d", len(ref), len(got), n)
	}
	for i := range ref {
		a, _ := json.Marshal(ref[i])
		b, _ := json.Marshal(got[i])
		if string(a) != string(b) {
			t.Fatalf("record %d diverges between uninterrupted and resumed runs:\n  %s\n  %s", i, a, b)
		}
	}
	// The corpus files must agree on the admitted entries (the resumed
	// file has one extra run marker from the second attach).
	if a, b := corpusEntries(t, refOpts.Corpus), corpusEntries(t, intOpts.Corpus); a != b {
		t.Fatalf("corpus entries diverge:\n--- uninterrupted:\n%s--- resumed:\n%s", a, b)
	}
}

// corpusEntries returns the admitted-entry lines of a corpus file
// (run markers stripped).
func corpusEntries(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"func"`) {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

func TestResumeRefusesCoverageMismatch(t *testing.T) {
	dir := t.TempDir()
	eo := EngineOptions{
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
		Limit:          5,
	}
	plan, ropts, err := BuildPlan(Options{Plan: "rand:20", Seed: 1, Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	eo.Options = ropts
	if _, err := StreamPlan(plan, eo, nil); err != nil {
		t.Fatal(err)
	}
	// Resuming without coverage would append records lacking cover data
	// mid-campaign; the checkpoint signature must refuse.
	plan, ropts, err = BuildPlan(Options{Plan: "rand:20", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eo.Options = ropts
	eo.Resume = true
	eo.Limit = 0
	if _, err := StreamPlan(plan, eo, nil); err == nil {
		t.Fatal("resume with a different coverage setting must fail")
	}
}

func TestBuildPlanCorpusRequiresFeedback(t *testing.T) {
	if _, _, err := BuildPlan(Options{Plan: "pairwise", Corpus: filepath.Join(t.TempDir(), "c.jsonl")}); err == nil {
		t.Fatal("corpus file with a static plan must be rejected")
	}
	plan, _, err := BuildPlan(Options{Plan: "feedback:10", Corpus: filepath.Join(t.TempDir(), "c.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	plan.(*corpus.FeedbackPlan).Close()
}

func TestJSONRecordCoverRoundTrip(t *testing.T) {
	plan, ropts, err := BuildPlan(Options{Plan: "boundary", Coverage: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := plan.At(0)
	res := RunOne(ds, ropts)
	if res.Cover == nil || res.Cover.Empty() {
		t.Fatal("coverage-enabled run produced no edges")
	}
	rec := ToRecord(0, res)
	if len(rec.Cover) != res.Cover.Count() || rec.CoverSig == "" {
		t.Fatalf("record carries %d sites (sig %q), want %d", len(rec.Cover), rec.CoverSig, res.Cover.Count())
	}
	back, err := rec.Result(ropts.Header)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cover == nil || back.Cover.Signature() != res.Cover.Signature() {
		t.Fatal("coverage did not survive the record round trip")
	}
}
