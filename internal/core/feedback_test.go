package core

import (
	"testing"

	"xmrobust/internal/campaign"
)

// TestFeedbackBeatsRand is the acceptance gate of the coverage-guided
// loop: at the same seed and budget, feedback:300 must discover strictly
// more kernel edges than rand:300 — otherwise the loop adds machinery
// without adding coverage. `make feedback-smoke` asserts the same
// property through the xmfuzz binary.
func TestFeedbackBeatsRand(t *testing.T) {
	if testing.Short() {
		t.Skip("two 300-test campaigns")
	}
	fb, err := RunCampaignStream(campaign.Options{Plan: "feedback:300", Seed: 1}, campaign.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := RunCampaignStream(campaign.Options{Plan: "rand:300", Seed: 1, Coverage: true}, campaign.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !fb.Coverage.Enabled || !rd.Coverage.Enabled {
		t.Fatalf("coverage not collected: feedback %v, rand %v", fb.Coverage.Enabled, rd.Coverage.Enabled)
	}
	if fb.Coverage.Edges <= rd.Coverage.Edges {
		t.Fatalf("feedback:300 found %d edges, rand:300 found %d — the loop must win strictly",
			fb.Coverage.Edges, rd.Coverage.Edges)
	}
	if fb.Coverage.Loop == nil || fb.Coverage.Loop.Corpus == 0 {
		t.Fatalf("feedback loop stats missing: %+v", fb.Coverage)
	}
	if rd.Coverage.Loop != nil {
		t.Fatal("rand campaign reports feedback-loop stats")
	}
}

// TestRunCampaignDynamicPlan runs a feedback plan in memory: the suite
// cannot be materialised up front, and RunCampaign needs no special case
// for it — every plan streams.
func TestRunCampaignDynamicPlan(t *testing.T) {
	rep, err := RunCampaign(campaign.Options{Plan: "feedback:40", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 40 || rep.Total != 40 {
		t.Fatalf("results %d total %d, want 40", len(rep.Results), rep.Total)
	}
	for i, r := range rep.Results {
		if r.Dataset.Func.Name == "" {
			t.Fatalf("result %d has no function", i)
		}
	}
	if !rep.Plan.Dynamic {
		t.Fatal("plan stats not flagged dynamic")
	}
	if !rep.Coverage.Enabled || rep.Coverage.Edges == 0 {
		t.Fatalf("coverage = %+v, want enabled with edges", rep.Coverage)
	}
	if n := classifiedTotal(rep); n != 40 {
		t.Fatalf("classified %d results, want 40", n)
	}
}

// TestCoverageOffByDefault pins the uninstrumented default: without
// Coverage (or a feedback plan) no result carries a map and the report's
// coverage section stays empty.
func TestCoverageOffByDefault(t *testing.T) {
	rep, err := RunCampaign(campaign.Options{Plan: "boundary"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage.Enabled {
		t.Fatal("coverage enabled without opting in")
	}
	for i, r := range rep.Results {
		if r.Cover != nil {
			t.Fatalf("result %d carries a coverage map", i)
		}
	}
}
