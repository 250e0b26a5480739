package campaign

import (
	"bytes"
	"path/filepath"
	"testing"
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
// byte-identical whether tests execute one per slot acquisition or in
// multi-test leases rewound in-slot — across batch sizes that divide the
// campaign evenly and ones that leave a partial trailing lease.
func TestBatchedExecutionIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full campaigns")
	}
	base := EngineOptions{Options: Options{Plan: "rand:30", Seed: 11, Workers: 2, MAFs: 2}}
	want := mergedCampaign(t, base)
	if len(want) == 0 {
		t.Fatal("empty campaign log")
	}
	for _, tc := range []struct {
		name string
		eo   EngineOptions
	}{
		{"batch3", EngineOptions{Options: base.Options, BatchSize: 3}},
		{"batch7-partial", EngineOptions{Options: base.Options, BatchSize: 7}},
		{"batch4-strict", EngineOptions{Options: base.Options, BatchSize: 4, PoolStrict: true}},
	} {
		if got := mergedCampaign(t, tc.eo); !bytes.Equal(want, got) {
			t.Errorf("%s: merged log differs from the unbatched reference (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
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
