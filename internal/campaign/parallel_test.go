package campaign

import (
	"bytes"
	"testing"
)

// TestParallelInjectCampaignByteIdentical extends the determinism
// invariant to real parallelism: a fixed-seed inject:sim campaign at
// workers=8 (leases racing across eight goroutines, run under -race in
// CI) must merge to a log byte-identical to the workers=1 run. The SEU
// schedule keys on dataset content, not on dispatch order, so nothing a
// coordinator does to the lease interleaving may show in the log.
func TestParallelInjectCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full injection campaigns")
	}
	base := Options{Plan: "rand:64", Seed: 9, Target: "inject:sim", MAFs: 2}

	serial := base
	serial.Workers = 1
	want := mergedCampaign(t, EngineOptions{Options: serial})
	if len(want) == 0 {
		t.Fatal("empty campaign log")
	}

	par := base
	par.Workers = 8
	for _, tc := range []struct {
		name string
		eo   EngineOptions
	}{
		{"workers8", EngineOptions{Options: par}},
		{"workers8-batched", EngineOptions{Options: par, BatchSize: 5}},
	} {
		if got := mergedCampaign(t, tc.eo); !bytes.Equal(want, got) {
			t.Errorf("%s: merged log differs from the workers=1 run (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
	}
}
