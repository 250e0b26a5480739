package campaign

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
	"xmrobust/internal/obs"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// mixedSuite builds a small suite covering the interesting outcome space:
// nominal returns, system resets, a hypervisor halt and a simulator crash
// — everything the pool's restore-and-verify cycle has to survive.
func mixedSuite(t *testing.T) []testgen.Dataset {
	t.Helper()
	h := apispec.Default()
	var out []testgen.Dataset
	for _, fn := range []string{"XM_get_system_status", "XM_reset_system", "XM_set_timer"} {
		f, ok := h.Function(fn)
		if !ok {
			t.Fatalf("unknown function %s", fn)
		}
		m, err := testgen.BuildMatrix(f, dict.Builtin())
		if err != nil {
			t.Fatal(err)
		}
		ds := m.Datasets()
		if len(ds) > 12 {
			ds = ds[:12]
		}
		out = append(out, ds...)
	}
	return out
}

// TestPooledMatchesFresh is the reset-isolation proof at the engine level:
// recycled machines and kernels must yield execution logs identical to
// fresh ones for every outcome class, with the pool's strict byte-scan
// verifying each recycle. The reference executes every dataset on its
// own newly provisioned backend: a newly allocated machine running a
// newly built kernel.
func TestPooledMatchesFresh(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 4}

	pooled := make([]Result, len(datasets))
	stats, err := Stream(datasets, EngineOptions{Options: opts, PoolStrict: true},
		func(pos int, r Result, _ []byte) { pooled[pos] = r })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(datasets) {
		t.Fatalf("executed %d of %d", stats.Executed, len(datasets))
	}

	spec := opts.withDefaults().runSpec()
	for i, ds := range datasets {
		sim := target.NewSim(target.Config{})
		if err := sim.Provision(1); err != nil {
			t.Fatal(err)
		}
		slot := sim.Acquire()
		fresh := sim.Execute(slot, ds, spec)
		sim.Release(slot)
		if st := sim.PoolStats(); st.Allocated != 1 || st.Reused != 0 {
			t.Fatalf("reference backend recycled a machine: %+v", st)
		}
		if !reflect.DeepEqual(fresh, pooled[i]) {
			t.Errorf("dataset %d (%s): pooled result differs from fresh\nfresh:  %+v\npooled: %+v",
				i, ds, fresh, pooled[i])
		}
	}
}

// TestPoolOnlyDiscardsCrashes: in strict mode every recycle is a full
// byte-scan, so any state leak would surface as a verification discard.
// The only legitimate discards are crashed simulators.
func TestPoolOnlyDiscardsCrashes(t *testing.T) {
	datasets := mixedSuite(t)
	crashes := 0
	stats, err := Stream(datasets, EngineOptions{Options: Options{Workers: 2}, PoolStrict: true},
		func(pos int, r Result, _ []byte) {
			if r.SimCrashed {
				crashes++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if crashes == 0 {
		t.Fatal("suite raised no simulator crash; the discard assertion is vacuous")
	}
	if got := stats.Pool.Discarded; got != uint64(crashes) {
		t.Fatalf("pool discarded %d machines, want exactly the %d crashes (a reset leaked state)",
			got, crashes)
	}
	if stats.Pool.Reused == 0 {
		t.Fatal("pool never recycled a machine")
	}
	// Every test takes its machine from the pool, whatever the lease
	// (the default is 16 tests): one pool Get per test.
	if gets := stats.Pool.Allocated + stats.Pool.Reused; gets != uint64(stats.Executed) {
		t.Fatalf("pool served %d acquires for %d tests, want one per test", gets, stats.Executed)
	}
}

// mergeDir renders the campaign directory dir of st as one
// campaign-ordered log.
func mergeDir(t *testing.T, st store.LogStore, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := MergeShardsIn(st, dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mergedRecords decodes the merged log of dir in st: one record per
// seq, in campaign order.
func mergedRecords(t *testing.T, st store.LogStore, dir string) []JSONRecord {
	t.Helper()
	var records []JSONRecord
	for _, line := range bytes.SplitAfter(mergeDir(t, st, dir), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec JSONRecord
		if err := (Codec{}).Decode(line, &rec); err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	return records
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 4}

	// The uninterrupted reference run.
	full := t.TempDir()
	if _, err := Stream(datasets, EngineOptions{
		Options: opts, ShardDir: full, CheckpointPath: filepath.Join(full, "ckpt.jsonl"),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// The interrupted run: stop a third of the way in, then resume.
	split := t.TempDir()
	ckpt := filepath.Join(split, "ckpt.jsonl")
	eo := EngineOptions{Options: opts, ShardDir: split, CheckpointPath: ckpt}
	eo.Limit = len(datasets) / 3
	s1, err := Stream(datasets, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Executed != eo.Limit {
		t.Fatalf("first leg executed %d, want %d", s1.Executed, eo.Limit)
	}
	eo.Limit = 0
	eo.Resume = true
	s2, err := Stream(datasets, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Skipped != s1.Executed || s2.Executed != len(datasets)-s1.Executed {
		t.Fatalf("resume skipped %d / executed %d after a %d-test first leg",
			s2.Skipped, s2.Executed, s1.Executed)
	}

	a, b := mergeDir(t, store.Local(), full), mergeDir(t, store.Local(), split)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged campaign logs differ between uninterrupted and resumed runs:\n--- full ---\n%s\n--- resumed ---\n%s", a, b)
	}
}

// TestResumeSinkSeesEveryPositionOnce pins the sink's contract on a
// resumed campaign: every position reaches it exactly once, the tests
// restored from the shards before any executed one, and each call
// carries the result whose record is the uninterrupted run's merged-log
// line for that position. An executed test's line argument is that
// merged-log line, a restored test's is nil. The sink takes no lock:
// under -race an overlapping call would be reported.
func TestResumeSinkSeesEveryPositionOnce(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 2, Coverage: true}
	ref := store.NewMem()
	if _, err := Stream(datasets, EngineOptions{Options: opts, ShardDir: "ref", Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.SplitAfter(mergeDir(t, ref, "ref"), []byte("\n"))

	mem := store.NewMem()
	eo := EngineOptions{Options: opts, ShardDir: "run", CheckpointPath: "run/ckpt.jsonl", Store: mem, Limit: 13}
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	restored := mergedRecords(t, mem, "run")
	eo.Limit, eo.Resume = 0, true
	var order []int
	lines := map[int]string{}
	stats, err := Stream(datasets, eo, func(pos int, r Result, line []byte) {
		order = append(order, pos)
		if line != nil {
			lines[pos] = string(line)
		}
		rec := ToRecord(pos, r)
		line, err := Codec{}.AppendEncode(nil, &rec)
		if err != nil {
			t.Errorf("position %d: %v", pos, err)
			return
		}
		if got := string(append(line, '\n')); got != string(want[pos]) {
			t.Errorf("position %d: the sink's result encodes to\n%.120s\nwant the merged line\n%.120s", pos, got, want[pos])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != len(restored) || stats.Executed != len(datasets)-len(restored) {
		t.Fatalf("resume skipped %d and executed %d; the shards held %d records of %d",
			stats.Skipped, stats.Executed, len(restored), len(datasets))
	}
	if len(order) != len(datasets) {
		t.Fatalf("the sink saw %d calls for %d positions", len(order), len(datasets))
	}
	isRestored := map[int]bool{}
	for _, rec := range restored {
		isRestored[rec.Seq] = true
	}
	seen := map[int]bool{}
	for i, pos := range order {
		if seen[pos] {
			t.Fatalf("the sink saw position %d twice", pos)
		}
		seen[pos] = true
		if isRestored[pos] != (i < len(restored)) {
			t.Fatalf("call %d is position %d (restored: %v), but the %d restored positions must come first",
				i, pos, isRestored[pos], len(restored))
		}
		line, ok := lines[pos]
		switch {
		case isRestored[pos] && ok:
			t.Errorf("restored position %d came with a line", pos)
		case !isRestored[pos] && line+"\n" != string(want[pos]):
			t.Errorf("position %d: the sink's line is\n%.120s\nwant the merged line\n%.120s", pos, line, want[pos])
		}
	}
}

// TestFreshRunClearsStaleShards: restarting a campaign in a used
// directory without -resume must not let the previous run's records leak
// into the merged log.
func TestFreshRunClearsStaleShards(t *testing.T) {
	datasets := mixedSuite(t)
	dir := t.TempDir()
	eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir,
		CheckpointPath: filepath.Join(dir, "ckpt.jsonl")}
	if _, err := Stream(datasets[:6], eo, nil); err != nil {
		t.Fatal(err)
	}
	// Same directory, different (smaller) campaign, no resume.
	if _, err := Stream(datasets[:3], eo, nil); err != nil {
		t.Fatal(err)
	}
	records := mergedRecords(t, store.Local(), dir)
	if len(records) != 3 {
		t.Fatalf("merged log holds %d records after a 3-test fresh run", len(records))
	}
}

// TestMissingCheckpointStartsFresh: a resume that finds no checkpoint
// starts the campaign fresh, so, like any fresh run, it clears the shards
// another campaign left in the directory.
func TestMissingCheckpointStartsFresh(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 2}
	ref := store.NewMem()
	if _, err := Stream(datasets[:6], EngineOptions{Options: opts, ShardDir: "ref", Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	want := mergeDir(t, ref, "ref")

	mem := store.NewMem()
	// Another campaign's shard-only run: no checkpoint.
	if _, err := Stream(datasets[6:], EngineOptions{Options: Options{Workers: 3}, ShardDir: "run", Store: mem}, nil); err != nil {
		t.Fatal(err)
	}
	eo := EngineOptions{Options: opts, ShardDir: "run", CheckpointPath: "run/ckpt.jsonl", Store: mem, Resume: true}
	stats, err := Stream(datasets[:6], eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Executed != 6 {
		t.Fatalf("resume without a checkpoint skipped %d and executed %d, want a fresh run of 6", stats.Skipped, stats.Executed)
	}
	if got := mergeDir(t, mem, "run"); !bytes.Equal(got, want) {
		t.Fatalf("merged log differs from a clean run's:\n%s", diffLines(want, got))
	}
}

// TestMarkedCheckpointResumes: a checkpoint written while the engine
// still recorded progress in it holds one {"seq":N} mark per completed
// test after its header, and possibly a torn last mark. It resumes to
// the uninterrupted bytes: the header is checked, the marks are ignored,
// and the shard records decide what ran.
func TestMarkedCheckpointResumes(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 2}
	ref := store.NewMem()
	if _, err := Stream(datasets, EngineOptions{Options: opts, ShardDir: "ref", Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	want := mergeDir(t, ref, "ref")

	mem := store.NewMem()
	eo := EngineOptions{Options: opts, ShardDir: "run", CheckpointPath: "run/ckpt.jsonl", Store: mem, Limit: 7}
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	w, err := mem.AppendCheckpoint("run/ckpt.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	records := mergedRecords(t, mem, "run")
	for _, rec := range records {
		fmt.Fprintf(w, "{\"seq\":%d}\n", rec.Seq)
	}
	io.WriteString(w, `{"se`)
	w.Close()

	eo.Limit, eo.Resume = 0, true
	stats, err := Stream(datasets, eo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 7 || stats.Executed != len(datasets)-7 {
		t.Fatalf("resume skipped %d and executed %d after a 7-test first leg", stats.Skipped, stats.Executed)
	}
	if got := mergeDir(t, mem, "run"); !bytes.Equal(got, want) {
		t.Fatalf("resumed log differs from an uninterrupted run:\n%s", diffLines(want, got))
	}
}

// TestShardPerRunningWorker: a campaign opens one shard per worker that
// runs, and no more workers run than there are tests, so a small plan
// under a huge worker count opens as many shards as it has tests.
func TestShardPerRunningWorker(t *testing.T) {
	st := store.NewMem()
	eo := EngineOptions{Options: Options{Workers: 64}, ShardDir: "shards", Store: st}
	if _, err := StreamPlan(DatasetSlice(mixedSuite(t)[:2]), eo, nil); err != nil {
		t.Fatal(err)
	}
	shards, err := st.ListLogs(filepath.Join("shards", ShardPattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("a 2-test campaign at 64 workers opened %d shards, want 2", len(shards))
	}
}

// TestResumeTrimsTornShardTail: an interruption can leave half a record
// at a shard's tail; resuming must truncate it before appending, or the
// fragment merges with the next record and poisons the whole directory.
func TestResumeTrimsTornShardTail(t *testing.T) {
	datasets := mixedSuite(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	eo := EngineOptions{Options: Options{Workers: 1}, ShardDir: dir, CheckpointPath: ckpt, Limit: 4}
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-record: append a torn fragment.
	f, err := os.OpenFile(shardPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"func":"XM_torn","seq":4,"kernel_st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eo.Limit = 0
	eo.Resume = true
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	records := mergedRecords(t, store.Local(), dir)
	if len(records) != len(datasets) {
		t.Fatalf("merged log holds %d records, want %d", len(records), len(datasets))
	}
	for i, rec := range records {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if rec.Func == "XM_torn" {
			t.Fatal("torn fragment survived the resume")
		}
	}
}

func TestCheckpointRejectsForeignCampaign(t *testing.T) {
	datasets := mixedSuite(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir, CheckpointPath: ckpt}
	if _, err := Stream(datasets[:4], eo, nil); err != nil {
		t.Fatal(err)
	}
	eo.Resume = true
	if _, err := Stream(datasets[:5], eo, nil); err == nil {
		t.Fatal("checkpoint of a different campaign accepted")
	}
}

// TestResumeRequiresShards: a resume skips the tests whose shard records
// are complete, so the engine refuses a resume without shards, which
// would silently drop the skipped tests.
func TestResumeRequiresShards(t *testing.T) {
	datasets := mixedSuite(t)
	eo := EngineOptions{Options: Options{Workers: 2},
		CheckpointPath: filepath.Join(t.TempDir(), "ckpt.jsonl"), Resume: true}
	if _, err := Stream(datasets, eo, nil); err == nil {
		t.Fatal("resume without a shard directory accepted")
	}
}

func TestCollectShardsDeduplicates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 holds seq 1 and a duplicate of seq 0 (a record re-executed
	// around an interruption); shard 0 also ends in a torn line.
	write("shard-000.jsonl", `{"func":"XM_a","seq":0,"kernel_state":"RUNNING","part_state":"NORMAL"}`+"\n"+`{"func":"XM_tor`)
	write("shard-001.jsonl", `{"func":"XM_b","seq":1,"kernel_state":"RUNNING","part_state":"NORMAL"}`+"\n"+
		`{"func":"XM_a","seq":0,"kernel_state":"RUNNING","part_state":"NORMAL"}`+"\n")
	records := mergedRecords(t, store.Local(), dir)
	if len(records) != 2 || records[0].Seq != 0 || records[1].Seq != 1 {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Func != "XM_a" || records[1].Func != "XM_b" {
		t.Fatalf("records = %+v", records)
	}
}

// TestRecordReconstruction: a record read back from the campaign log must
// reconstruct an execution log that the analysis phase cannot tell from
// the original.
func TestRecordReconstruction(t *testing.T) {
	datasets := mixedSuite(t)
	h := apispec.Default()
	for i, ds := range datasets {
		orig := RunOne(ds, Options{})
		rec := ToRecord(i, orig)
		back, err := rec.Result(h)
		if err != nil {
			t.Fatalf("dataset %d: %v", i, err)
		}
		// The resolved Bits are execution-time detail the log does not
		// carry; everything analysis reads must round-trip.
		for j := range back.Resolved {
			back.Resolved[j].Bits = orig.Resolved[j].Bits
		}
		back.Dataset.Index = orig.Dataset.Index
		if !reflect.DeepEqual(orig, back) {
			t.Fatalf("dataset %d (%s): reconstruction drifted\norig: %+v\nback: %+v",
				i, ds, orig, back)
		}
	}
}

// TestStreamBoundedQueue: a single worker, the smallest pool the engine
// runs, takes every lease from the coordinator in turn and runs every
// test.
func TestStreamBoundedQueue(t *testing.T) {
	datasets := mixedSuite(t)
	var seen int
	stats, err := Stream(datasets, EngineOptions{Options: Options{Workers: 1}},
		func(pos int, r Result, _ []byte) { seen++ })
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(datasets) || stats.Executed != len(datasets) {
		t.Fatalf("seen %d, executed %d, want %d", seen, stats.Executed, len(datasets))
	}
}

// TestStreamProgressCountsResumedTests: a resumed campaign's progress
// counts the tests its checkpoint restored as done, so it runs from the
// first test after them to the campaign total.
func TestStreamProgressCountsResumedTests(t *testing.T) {
	datasets := mixedSuite(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	eo := EngineOptions{Options: Options{Workers: 2}, ShardDir: dir, CheckpointPath: ckpt, Limit: 5}
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	var first int64
	eo.Limit = 0
	eo.Resume = true
	eo.Obs = o
	stats, err := Stream(datasets, eo, func(int, Result, []byte) {
		if first == 0 {
			first = o.Prog().Snapshot().Done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 5 {
		t.Fatalf("resume skipped %d tests, want 5", stats.Skipped)
	}
	s := o.Prog().Snapshot()
	if first != 6 || s.Done != int64(len(datasets)) || s.Total != int64(len(datasets)) {
		t.Fatalf("progress ran %d..%d of %d, want 6..%d of %d", first, s.Done, s.Total, len(datasets), len(datasets))
	}
}

func TestPhantomPlanThroughEngine(t *testing.T) {
	// The §V extension is an ordinary plan now: its 50 stateful tests
	// stream through the same engine path as every other campaign.
	plan, opts, err := BuildPlan(Options{Plan: "phantom", MAFs: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	suite := testgen.Materialize(plan)
	if len(suite) != 50 {
		t.Fatalf("phantom tests = %d, want 50", len(suite))
	}
	res := RunDatasets(suite, opts)
	for i, r := range res {
		if r.RunErr != "" {
			t.Fatalf("phantom test %d (%s): %s", i, r.Dataset, r.RunErr)
		}
		if r.Target != "sim" {
			t.Fatalf("phantom test %d executed on %q, want sim", i, r.Target)
		}
	}
}
