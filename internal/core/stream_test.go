package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"xmrobust/internal/campaign"
)

// TestStreamReportMatchesEager pins "one report": a campaign run in
// memory and the same campaign run through shards and a checkpoint —
// interrupted a third of the way in, then resumed — must yield the same
// analysis, field for field: issues with their cases and evidence, the
// CRASH tally, tests per hypercall, divergences, coverage and the SEU
// study.
func TestStreamReportMatchesEager(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts campaign.Options
	}{
		{"paper", campaign.Options{}},
		{"diff", campaign.Options{Plan: "rand:60", Seed: 7, Target: "diff:sim,phantom"}},
		{"inject", campaign.Options{Plan: "rand:80", Seed: 1, Target: "inject:sim"}},
		{"coverage", campaign.Options{Plan: "rand:80", Seed: 3, Coverage: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mem *CampaignReport
			if tc.name == "paper" {
				mem = legacyCampaign(t)
			} else {
				var err error
				if mem, err = RunCampaign(tc.opts); err != nil {
					t.Fatal(err)
				}
			}

			dir := t.TempDir()
			eo := campaign.EngineOptions{
				ShardDir:       dir,
				CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
				Limit:          mem.Total / 3,
			}
			if _, err := RunCampaign(tc.opts, eo); err != nil {
				t.Fatal(err)
			}
			eo.Limit = 0
			eo.Resume = true
			rep, err := RunCampaign(tc.opts, eo)
			if err != nil {
				t.Fatal(err)
			}

			if rep.Total != mem.Total || rep.Skipped != mem.Total/3 || rep.Executed != mem.Total-mem.Total/3 {
				t.Fatalf("resumed total=%d skipped=%d executed=%d vs %d tests in memory",
					rep.Total, rep.Skipped, rep.Executed, mem.Total)
			}
			if rep.Results != nil {
				t.Fatal("a checkpointed campaign retained its results in memory")
			}
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Table III", rep.TableIII(), mem.TableIII()},
				{"issues", rep.Issues, mem.Issues},
				{"verdicts", rep.Verdicts, mem.Verdicts},
				{"tests by hypercall", rep.TestsByFunc, mem.TestsByFunc},
				{"divergences", rep.Divergences, mem.Divergences},
				{"coverage", rep.Coverage, mem.Coverage},
				{"injection", rep.Injection, mem.Injection},
				{"harness errors", rep.HarnessErrors, mem.HarnessErrors},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s diverged:\nresumed:   %+v\nin memory: %+v", f.name, f.got, f.want)
				}
			}
			if mem.HarnessErrors != 0 {
				t.Fatalf("harness errors = %d", mem.HarnessErrors)
			}
		})
	}
}

// TestStreamInMemoryMode: RunCampaignStream without shards is the
// in-memory campaign; its issue list must match, and the engine must
// recycle machines.
func TestStreamInMemoryMode(t *testing.T) {
	eager := legacyCampaign(t)
	rep, err := RunCampaignStream(campaign.Options{}, campaign.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != len(eager.Issues) {
		t.Fatalf("issues: stream %d vs eager %d", len(rep.Issues), len(eager.Issues))
	}
	for i := range rep.Issues {
		if rep.Issues[i].ID() != eager.Issues[i].ID() {
			t.Fatalf("issue %d: %s vs %s", i, rep.Issues[i].ID(), eager.Issues[i].ID())
		}
	}
	if rep.Engine.Pool.Reused == 0 {
		t.Fatal("streamed campaign never recycled a machine")
	}
}
