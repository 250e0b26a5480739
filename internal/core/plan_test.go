package core

import (
	"path/filepath"
	"strings"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
)

// reducedOpts restricts the campaign to a few fast hypercalls.
func reducedOpts(plan string, seed int64) campaign.Options {
	keep := map[string]bool{
		"XM_reset_system": true, "XM_set_timer": true,
		"XM_get_time": true, "XM_multicall": true,
	}
	h := apispec.Default()
	for i := range h.Functions {
		if !keep[h.Functions[i].Name] {
			h.Functions[i].Tested = "NO"
		}
	}
	return campaign.Options{Header: h, Plan: plan, Seed: seed, Workers: 2}
}

// TestStreamedPairwisePlanReportsCoverage: a pairwise campaign must report
// full value-pair coverage and a reduced test count, and the analysis
// must cover exactly the plan's tests.
func TestStreamedPairwisePlanReportsCoverage(t *testing.T) {
	rep, err := RunCampaignStream(reducedOpts("pairwise", 0), campaign.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.Strategy != "pairwise" {
		t.Fatalf("plan = %q", rep.Plan.Strategy)
	}
	if rep.Plan.PairCoverage() != 1 {
		t.Fatalf("pair coverage = %v", rep.Plan.PairCoverage())
	}
	// Eq. 1 for the reduced spec: 5 + 20 + 15 + 9.
	if rep.Plan.Exhaustive != 49 {
		t.Fatalf("Eq. 1 = %d, want 49", rep.Plan.Exhaustive)
	}
	if rep.Plan.Tests >= 49 || rep.Plan.Tests != rep.Total {
		t.Fatalf("pairwise ran %d of %d tests (report total %d)", rep.Plan.Tests, rep.Plan.Exhaustive, rep.Total)
	}
	tests := 0
	for _, n := range rep.TestsByFunc {
		tests += n
	}
	if tests != rep.Total {
		t.Fatalf("analysis covered %d tests, plan has %d", tests, rep.Total)
	}
	// XM_reset_system's unexpected resets surface under any plan that
	// injects its boundary values — pairwise keeps every 1-param value.
	found := false
	for _, iss := range rep.Issues {
		if iss.Func == "XM_reset_system" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pairwise campaign lost the XM_reset_system issues: %+v", rep.Issues)
	}
}

// TestStreamedPlanResumeMismatchSurfaces: the engine's plan-fingerprint
// refusal must reach RunCampaignStream callers verbatim.
func TestStreamedPlanResumeMismatchSurfaces(t *testing.T) {
	dir := t.TempDir()
	eo := campaign.EngineOptions{
		ShardDir:       dir,
		CheckpointPath: filepath.Join(dir, "checkpoint.jsonl"),
		Limit:          3,
	}
	if _, err := RunCampaignStream(reducedOpts("boundary", 0), eo); err != nil {
		t.Fatal(err)
	}
	eo.Limit = 0
	eo.Resume = true
	_, err := RunCampaignStream(reducedOpts("rand:5", 1), eo)
	if err == nil {
		t.Fatal("resume under a different plan accepted")
	}
	for _, want := range []string{"boundary", "rand:5", "fingerprint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// Matching plan resumes and reports over the whole campaign.
	rep, err := RunCampaignStream(reducedOpts("boundary", 0), eo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 3 || rep.Executed != rep.Total-3 {
		t.Fatalf("resume skipped %d / executed %d of %d", rep.Skipped, rep.Executed, rep.Total)
	}
}

// TestEagerCampaignHonoursPlan: an in-memory campaign generates through
// the same plan layer.
func TestEagerCampaignHonoursPlan(t *testing.T) {
	rep, err := RunCampaign(reducedOpts("rand:12", 99))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 12 || rep.Plan.Tests != 12 {
		t.Fatalf("rand:12 executed %d tests (plan says %d)", len(rep.Results), rep.Plan.Tests)
	}
	if rep.Plan.Strategy != "rand:12" {
		t.Fatalf("plan = %q", rep.Plan.Strategy)
	}
	if _, err := RunCampaign(reducedOpts("nope", 0)); err == nil {
		t.Fatal("unknown plan accepted")
	}
}
