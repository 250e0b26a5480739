package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"xmrobust/internal/obs"
	"xmrobust/internal/store"
)

// mergedCampaign runs a fixed-seed campaign through the streaming engine
// into shards and returns the merged log bytes.
func mergedCampaign(t *testing.T, eo EngineOptions) []byte {
	t.Helper()
	dir := t.TempDir()
	eo.ShardDir = filepath.Join(dir, "shards")
	eo.CheckpointPath = filepath.Join(dir, "ckpt")
	if _, err := StreamPlan(planSource(t, eo.Options.Plan, eo.Options), eo, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := MergeShards(eo.ShardDir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// planSource builds the engine source for a campaign plan spec.
func planSource(t *testing.T, _ string, opts Options) Source {
	t.Helper()
	plan, _, err := BuildPlan(opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestBatchedExecutionIsByteIdentical is the acceptance property of the
// BatchExecutor capability: a fixed-seed campaign's merged log must be
// byte-identical whether tests execute one per lease or in multi-test
// leases — the default lease included, and across batch sizes that
// divide the campaign evenly and ones that leave a partial trailing
// lease.
func TestBatchedExecutionIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full campaigns")
	}
	base := EngineOptions{Options: Options{Plan: "rand:30", Seed: 11, Workers: 2, MAFs: 2}, BatchSize: 1}
	want := mergedCampaign(t, base)
	if len(want) == 0 {
		t.Fatal("empty campaign log")
	}
	for _, tc := range []struct {
		name string
		eo   EngineOptions
	}{
		{"default", EngineOptions{Options: base.Options, BatchSize: 0}},
		{"batch3", EngineOptions{Options: base.Options, BatchSize: 3}},
		{"batch7-partial", EngineOptions{Options: base.Options, BatchSize: 7}},
		{"batch4-strict", EngineOptions{Options: base.Options, BatchSize: 4, PoolStrict: true}},
	} {
		if got := mergedCampaign(t, tc.eo); !bytes.Equal(want, got) {
			t.Errorf("%s: merged log differs from the lease-of-one reference (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
	}
}

// TestDefaultLeaseOnBatchingTargets: a BatchSize of 0 leases
// DefaultBatchSize tests at a time on a target that batches, so a sim
// campaign of n tests issues ⌈n/16⌉ leases, and still takes one pool
// machine per test. An explicit BatchSize of 1, a target without the
// capability and a feedback plan lease one test at a time. The trace's
// lease.issue events and the xm_engine_batch_size gauge both say so.
func TestDefaultLeaseOnBatchingTargets(t *testing.T) {
	for _, tc := range []struct {
		plan, target string
		batch, lease int
	}{
		{"rand:60", "", 0, DefaultBatchSize},
		{"rand:60", "", 1, 1},
		{"rand:60", "phantom", 0, 1},
		{"feedback:30", "", 0, 1},
	} {
		name := fmt.Sprintf("%s,%s,batch%d", tc.plan, cmp.Or(tc.target, "sim"), tc.batch)
		t.Run(name, func(t *testing.T) {
			plan, ropts, err := BuildPlan(Options{Plan: tc.plan, Seed: 1, Workers: 2, Target: tc.target})
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New()
			st := store.NewMem()
			eo := EngineOptions{Options: ropts, ShardDir: "shards", Store: st, Obs: o, BatchSize: tc.batch}
			stats, err := StreamPlan(plan, eo, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := plan.Len()
			if stats.Executed != n {
				t.Fatalf("executed %d of %d", stats.Executed, n)
			}
			if got := obs.NewEngineMetrics(o.Registry()).BatchSize.Value(); got != int64(tc.lease) {
				t.Errorf("xm_engine_batch_size = %d, want %d", got, tc.lease)
			}
			issued := 0
			for _, line := range bytes.Split(bytes.TrimSpace(readLog(t, st, "shards/"+TraceName)), []byte("\n")) {
				var ev obs.Event
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("bad trace line %q: %v", line, err)
				}
				if ev.Kind == "lease.issue" {
					issued++
				}
			}
			if want := (n + tc.lease - 1) / tc.lease; issued != want {
				t.Errorf("%d tests went out in %d leases, want %d", n, issued, want)
			}
			if tc.target == "" {
				if gets := stats.Pool.Allocated + stats.Pool.Reused; gets != uint64(n) {
					t.Errorf("the pool served %d acquires for %d tests, want one per test", gets, n)
				}
			}
		})
	}
}

// TestBatchSizeOnIncapableTarget pins the graceful degradation: the
// phantom backend has no BatchExecutor, so a batched campaign on it must
// fall back to per-test execution and still match its unbatched log.
func TestBatchSizeOnIncapableTarget(t *testing.T) {
	opts := Options{Plan: "rand:12", Seed: 5, Target: "phantom", Workers: 1}
	want := mergedCampaign(t, EngineOptions{Options: opts})
	got := mergedCampaign(t, EngineOptions{Options: opts, BatchSize: 5})
	if !bytes.Equal(want, got) {
		t.Fatal("batched phantom campaign diverged from unbatched")
	}
}
