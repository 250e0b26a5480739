package campaign

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
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
		func(pos int, r Result) { pooled[pos] = r })
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
		func(pos int, r Result) {
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
	// The default lease is one test: one pool Get per test, however the
	// target recycles between them.
	if gets := stats.Pool.Allocated + stats.Pool.Reused; gets != uint64(stats.Executed) {
		t.Fatalf("pool served %d acquires for %d tests, want one per test", gets, stats.Executed)
	}
}

// mergeDir renders the shard directory as one campaign-ordered log.
func mergeDir(t *testing.T, dir string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := MergeShards(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

	a, b := mergeDir(t, full), mergeDir(t, split)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged campaign logs differ between uninterrupted and resumed runs:\n--- full ---\n%s\n--- resumed ---\n%s", a, b)
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
	records, err := CollectShardsIn(store.Local(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("merged log holds %d records after a 3-test fresh run", len(records))
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
	// Simulate a SIGKILL mid-record: append a torn fragment with no
	// matching checkpoint mark.
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
	records, err := CollectShardsIn(store.Local(), dir)
	if err != nil {
		t.Fatal(err)
	}
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

// failingShardStore is an in-memory store whose n-th shard Write,
// counted over every shard it opened, fails without writing a byte.
type failingShardStore struct {
	*store.Mem
	n      int64
	writes atomic.Int64
}

func (s *failingShardStore) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	w, err := s.Mem.AppendLog(name, trimTorn)
	if err != nil {
		return nil, err
	}
	return failingShardWriter{WriteCloser: w, s: s}, nil
}

type failingShardWriter struct {
	io.WriteCloser
	s *failingShardStore
}

func (w failingShardWriter) Write(p []byte) (int, error) {
	if w.s.writes.Add(1) == w.s.n {
		return 0, errors.New("injected shard write failure")
	}
	return w.WriteCloser.Write(p)
}

// TestFailedShardWriteIsNeverCheckpointed: a checkpoint mark promises
// that its test's record is in a shard, so a record whose write fails
// stays unmarked. The campaign reports the write error, and a resume
// re-runs the unmarked tests to the bytes of an uninterrupted run.
func TestFailedShardWriteIsNeverCheckpointed(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 1}

	ref := store.NewMem()
	if _, err := Stream(datasets, EngineOptions{Options: opts, ShardDir: "ref", Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := MergeShardsIn(ref, "ref", &want); err != nil {
		t.Fatal(err)
	}

	mem := store.NewMem()
	eo := EngineOptions{Options: opts, ShardDir: "run", CheckpointPath: "run/ckpt.jsonl",
		Store: &failingShardStore{Mem: mem, n: 3}}
	if _, err := Stream(datasets, eo, nil); err == nil || !strings.Contains(err.Error(), "campaign: shard record") {
		t.Fatalf("campaign with a failed shard write returned %v, want the shard record error", err)
	}
	data, err := mem.ReadCheckpoint("run/ckpt.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// The header line, then one mark per record that reached the shard.
	if marks := strings.Count(string(data), "\n") - 1; marks != 2 {
		t.Fatalf("checkpoint holds %d marks, want the 2 records written before the failure:\n%s", marks, data)
	}

	eo.Store = mem
	eo.Resume = true
	if _, err := Stream(datasets, eo, nil); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := MergeShardsIn(mem, "run", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("resumed log differs from an uninterrupted run (%d vs %d bytes)", got.Len(), want.Len())
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

// TestResumeRequiresShards: a checkpoint mark promises a durable record;
// the engine refuses a resume that would silently drop the skipped tests.
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
	records, err := CollectShardsIn(store.Local(), dir)
	if err != nil {
		t.Fatal(err)
	}
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
		func(pos int, r Result) { seen++ })
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
	stats, err := Stream(datasets, eo, func(int, Result) {
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
