package core

import (
	"sync"
	"testing"

	"xmrobust/internal/analysis"
	"xmrobust/internal/campaign"
	"xmrobust/internal/xm"
)

// The full campaign takes a few seconds; share one legacy and one patched
// run across the whole test package.
var (
	legacyOnce sync.Once
	legacyRep  *CampaignReport
	legacyErr  error

	patchedOnce sync.Once
	patchedRep  *CampaignReport
	patchedErr  error
)

func legacyCampaign(t *testing.T) *CampaignReport {
	t.Helper()
	legacyOnce.Do(func() {
		legacyRep, legacyErr = RunCampaign(campaign.Options{})
	})
	if legacyErr != nil {
		t.Fatal(legacyErr)
	}
	return legacyRep
}

func patchedCampaign(t *testing.T) *CampaignReport {
	t.Helper()
	patchedOnce.Do(func() {
		patchedRep, patchedErr = RunCampaign(campaign.Options{Faults: xm.PatchedFaults()})
	})
	if patchedErr != nil {
		t.Fatal(patchedErr)
	}
	return patchedRep
}

// TestTableIIIReproduction is the headline result: the campaign reproduces
// the structure of the paper's Table III — same hypercall inventory, same
// tested selection, test counts within a few percent (exact per the
// DESIGN.md §4 targets), and the same issue distribution: 9 issues, three
// each in System Management, Time Management and Miscellaneous.
func TestTableIIIReproduction(t *testing.T) {
	rep := legacyCampaign(t)
	rows := rep.TableIII()

	type row struct{ total, tested, tests, issues int }
	want := map[xm.Category]row{
		xm.CatSystem:    {3, 2, 8, 3},
		xm.CatPartition: {10, 6, 256, 0},
		xm.CatTime:      {2, 2, 35, 3},
		xm.CatPlan:      {2, 1, 2, 0},
		xm.CatIPC:       {10, 8, 595, 0},
		xm.CatMemory:    {2, 1, 980, 0},
		xm.CatHM:        {5, 3, 58, 0},
		xm.CatTrace:     {5, 4, 428, 0},
		xm.CatInterrupt: {5, 4, 175, 0},
		xm.CatMisc:      {5, 3, 39, 3},
		xm.CatSparc:     {12, 5, 85, 0},
	}
	for _, r := range rows {
		if r.Category == "Total" {
			if r.TotalHypercalls != 61 || r.Tested != 39 || r.Tests != 2661 || r.Issues != 9 {
				t.Fatalf("totals = %+v, want 61/39/2661/9", r)
			}
			continue
		}
		w, ok := want[r.Category]
		if !ok {
			t.Errorf("unexpected category %q", r.Category)
			continue
		}
		if r.TotalHypercalls != w.total || r.Tested != w.tested ||
			r.Tests != w.tests || r.Issues != w.issues {
			t.Errorf("%s: got %d/%d/%d/%d, want %d/%d/%d/%d", r.Category,
				r.TotalHypercalls, r.Tested, r.Tests, r.Issues,
				w.total, w.tested, w.tests, w.issues)
		}
	}
}

// TestNineIssuesIdentity pins the nine §IV.C findings one by one.
func TestNineIssuesIdentity(t *testing.T) {
	rep := legacyCampaign(t)
	if len(rep.Issues) != 9 {
		t.Fatalf("issues = %d, want 9:\n%s", len(rep.Issues), analysis.Summary(rep.Issues))
	}
	type key struct {
		fn, reaction, blamed string
	}
	got := map[key]bool{}
	for _, iss := range rep.Issues {
		got[key{iss.Func, iss.Reaction, iss.Blamed}] = true
	}
	want := []key{
		{"XM_reset_system", analysis.ReactColdReset, "mode=2"},
		{"XM_reset_system", analysis.ReactColdReset, "mode=16"},
		{"XM_reset_system", analysis.ReactWarmReset, "mode=4294967295"},
		{"XM_set_timer", analysis.ReactKernelHalt, ""},
		{"XM_set_timer", analysis.ReactSimCrash, ""},
		{"XM_set_timer", analysis.ReactSilentOK, ""},
		{"XM_multicall", analysis.ReactKernelTrap, "startAddr"},
		{"XM_multicall", analysis.ReactOverrun, "endAddr"},
		{"XM_multicall", analysis.ReactOverrun, ""},
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing issue %+v\nfound:\n%s", w, analysis.Summary(rep.Issues))
		}
	}
}

// TestCRASHScaleTally pins the severity distribution of the failures.
func TestCRASHScaleTally(t *testing.T) {
	rep := legacyCampaign(t)
	counts := rep.Verdicts
	if counts[analysis.Catastrophic] != 7 {
		t.Errorf("Catastrophic = %d, want 7 (3 resets + 2 halts + 2 sim crashes)", counts[analysis.Catastrophic])
	}
	if counts[analysis.Restart] != 4 {
		t.Errorf("Restart = %d, want 4 (multicall overruns)", counts[analysis.Restart])
	}
	if counts[analysis.Abort] != 2 {
		t.Errorf("Abort = %d, want 2 (multicall exceptions)", counts[analysis.Abort])
	}
	if counts[analysis.Silent] != 4 {
		t.Errorf("Silent = %d, want 4 (negative-interval successes)", counts[analysis.Silent])
	}
	if counts[analysis.Hindering] != 0 {
		t.Errorf("Hindering = %d, want 0", counts[analysis.Hindering])
	}
	if counts[analysis.Pass] != 2661-17 {
		t.Errorf("Pass = %d, want %d", counts[analysis.Pass], 2661-17)
	}
}

// TestPatchedKernelAblation: after the XM team's fixes the same campaign
// raises zero issues — the fault-removal outcome the paper reports per
// finding ("this service has now been revised…").
func TestPatchedKernelAblation(t *testing.T) {
	rep := patchedCampaign(t)
	if len(rep.Issues) != 0 {
		t.Fatalf("patched kernel raised %d issues:\n%s",
			len(rep.Issues), analysis.Summary(rep.Issues))
	}
	rows := rep.TableIII()
	last := rows[len(rows)-1]
	if last.Tests != 2661 || last.Issues != 0 {
		t.Fatalf("patched totals = %+v", last)
	}
	counts := rep.Verdicts
	if counts[analysis.Pass] != 2661 {
		t.Fatalf("patched verdicts = %v, want all Pass", counts)
	}
}

// TestFailuresAccessor cross-checks the failing verdicts against the
// issue clusters.
func TestFailuresAccessor(t *testing.T) {
	rep := legacyCampaign(t)
	failures := 0
	for v, n := range rep.Verdicts {
		if v.Failure() {
			failures += n
		}
	}
	if failures != 17 {
		t.Fatalf("failing tests = %d, want 17", failures)
	}
	caseCount := 0
	for _, iss := range rep.Issues {
		caseCount += len(iss.Cases)
	}
	if caseCount != failures {
		t.Fatalf("issue cases = %d, failures = %d", caseCount, failures)
	}
}

// TestDatasetsRecorded verifies the in-memory report carries every
// execution log, in campaign order, and classified every one of them.
func TestDatasetsRecorded(t *testing.T) {
	rep := legacyCampaign(t)
	plan, _, err := campaign.BuildPlan(campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2661 || rep.Total != 2661 || plan.Len() != 2661 {
		t.Fatalf("sizes = %d/%d/%d", len(rep.Results), rep.Total, plan.Len())
	}
	for i, r := range rep.Results {
		if got, want := r.Dataset.String(), plan.At(i).String(); got != want {
			t.Fatalf("result %d is %s, plan position %d is %s", i, got, i, want)
		}
	}
	if n := classifiedTotal(rep); n != 2661 {
		t.Fatalf("classified %d results, want 2661", n)
	}
}

// classifiedTotal counts the results the campaign's CRASH tally covers.
func classifiedTotal(rep *CampaignReport) int {
	n := 0
	for _, c := range rep.Verdicts {
		n += c
	}
	return n
}
