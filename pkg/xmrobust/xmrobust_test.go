package xmrobust_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"xmrobust/internal/campaign"
	"xmrobust/internal/testgen"
	"xmrobust/pkg/xmrobust"
)

// TestGoldenFacadeMatchesCampaignRun is the refactor's golden test: a
// seeded sim campaign through the public facade (streamed, sharded,
// checkpointed) must produce a merged JSON Lines log byte-identical to
// the log of the materialised plan executed by campaign.RunDatasets and
// written by encoding/json (in memory) — a reference built without
// internal/core or the record codec.
func TestGoldenFacadeMatchesCampaignRun(t *testing.T) {
	const plan, seed = "rand:60", int64(42)

	p, opts, err := campaign.BuildPlan(campaign.Options{Plan: plan, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	results := campaign.RunDatasets(testgen.Materialize(p), opts)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i, r := range results {
		if err := enc.Encode(campaign.ToRecord(i, r)); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := xmrobust.Run(
		xmrobust.WithPlan(plan),
		xmrobust.WithSeed(seed),
		xmrobust.WithTarget("sim"),
		xmrobust.WithCheckpoint(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := rep.WriteLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(results) {
		t.Fatalf("facade log has %d records, the reference has %d", n, len(results))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("facade merged log differs from the reference log")
	}
	// The default backend serialises as the target field's absence —
	// the contract that keeps sim logs byte-identical to logs written
	// before the target layer existed.
	if bytes.Contains(got.Bytes(), []byte(`"target"`)) {
		t.Fatal("sim records carry an explicit target field, breaking pre-target-layer log compatibility")
	}
}

// TestCheckpointedSummaryMatchesInMemory pins "one report" at the facade:
// the same campaign run in memory and through a fresh checkpoint prints
// the same summary, byte for byte. One worker keeps the machine-pool
// line deterministic.
func TestCheckpointedSummaryMatchesInMemory(t *testing.T) {
	for _, opts := range [][]xmrobust.Option{
		nil, // the paper campaign
		{xmrobust.WithPlan("rand:40"), xmrobust.WithSeed(7), xmrobust.WithMAFs(1),
			xmrobust.WithTarget("diff:sim,phantom")},
	} {
		opts = append(opts, xmrobust.WithWorkers(1))
		mem, err := xmrobust.Run(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := xmrobust.Run(append(opts, xmrobust.WithCheckpoint(t.TempDir()))...)
		if err != nil {
			t.Fatal(err)
		}
		if mem.Summary() != ckpt.Summary() {
			t.Fatalf("summaries differ:\n--- in memory\n%s\n--- checkpointed\n%s", mem.Summary(), ckpt.Summary())
		}
	}
}

// TestStoreCampaignMatchesInMemory: a checkpointed campaign persisting
// through WithStore reads its analysis and its merged log back through
// that store, not the local disk — its log bytes and summary equal the
// in-memory campaign's.
func TestStoreCampaignMatchesInMemory(t *testing.T) {
	opts := []xmrobust.Option{xmrobust.WithPlan("rand:20"), xmrobust.WithSeed(1), xmrobust.WithWorkers(1)}
	mem, err := xmrobust.Run(opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := xmrobust.Run(append(opts,
		xmrobust.WithCheckpoint(t.TempDir()), xmrobust.WithStore(xmrobust.NewMemStore()))...)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := mem.WriteLog(&want); err != nil {
		t.Fatal(err)
	}
	n, err := st.WriteLog(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("store campaign wrote %d records, differing from the in-memory log", n)
	}
	if st.Summary() != mem.Summary() {
		t.Fatalf("summaries differ:\n--- in memory\n%s\n--- store\n%s", mem.Summary(), st.Summary())
	}

	// A resume reads the restored tests back through the store too.
	ckpt := []xmrobust.Option{xmrobust.WithCheckpoint(t.TempDir()), xmrobust.WithStore(xmrobust.NewMemStore())}
	if _, err := xmrobust.Run(append(append(opts, ckpt...), xmrobust.WithLimit(7))...); err != nil {
		t.Fatal(err)
	}
	res, err := xmrobust.Run(append(append(opts, ckpt...), xmrobust.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped() != 7 || res.TableText() != mem.TableText() || res.IssuesText() != mem.IssuesText() {
		t.Fatalf("resumed store campaign (%d skipped) reports differently:\n%s%s", res.Skipped(), res.TableText(), res.IssuesText())
	}
}

// TestLimitRequiresCheckpoint: a budgeted run only makes sense with a
// checkpoint to resume from; without one it is refused by name instead
// of reporting tests it never executed.
func TestLimitRequiresCheckpoint(t *testing.T) {
	_, err := xmrobust.Run(xmrobust.WithPlan("rand:20"), xmrobust.WithSeed(1), xmrobust.WithLimit(5))
	if err == nil || !strings.Contains(err.Error(), "WithCheckpoint") {
		t.Fatalf("WithLimit without WithCheckpoint: %v", err)
	}
	rep, err := xmrobust.Run(xmrobust.WithPlan("rand:20"), xmrobust.WithSeed(1), xmrobust.WithLimit(5),
		xmrobust.WithCheckpoint(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if n, err := rep.WriteLog(&log); err != nil || n != 5 || rep.Executed() != 5 {
		t.Fatalf("budgeted run executed %d, logged %d (%v), want 5", rep.Executed(), n, err)
	}
}

// TestNegativeCountsRefused: a negative count is an error naming the
// field, not a campaign run at the default; mafs and workers above their
// bounds are errors naming the field and the bound. Validation runs
// before anything is built, so no refused worker ever starts.
func TestNegativeCountsRefused(t *testing.T) {
	for _, tc := range []struct {
		field string
		opt   xmrobust.Option
	}{
		{"mafs", xmrobust.WithMAFs(-1)},
		{"workers", xmrobust.WithWorkers(-1)},
		{"batch", xmrobust.WithBatchSize(-1)},
		{"limit", xmrobust.WithLimit(-1)},
		{fmt.Sprintf("mafs %d exceeds the maximum of %d", campaign.MaxMAFs+1, campaign.MaxMAFs),
			xmrobust.WithMAFs(campaign.MaxMAFs + 1)},
		{fmt.Sprintf("workers %d exceeds the maximum of %d", campaign.MaxWorkers+1, campaign.MaxWorkers),
			xmrobust.WithWorkers(campaign.MaxWorkers + 1)},
	} {
		_, err := xmrobust.Run(xmrobust.WithPlan("rand:2"), tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("want an error naming %q, got %v", tc.field, err)
		}
	}
}

// TestResumeRefusesTargetMismatch pins the checkpoint acceptance
// criterion: a campaign checkpointed on one backend refuses to resume on
// another, naming both.
func TestResumeRefusesTargetMismatch(t *testing.T) {
	dir := t.TempDir()
	base := []xmrobust.Option{
		xmrobust.WithPlan("rand:6"),
		xmrobust.WithSeed(1),
		xmrobust.WithMAFs(1),
		xmrobust.WithCheckpoint(dir),
	}
	if _, err := xmrobust.Run(append(base, xmrobust.WithTarget("sim"))...); err != nil {
		t.Fatal(err)
	}
	_, err := xmrobust.Run(append(base,
		xmrobust.WithTarget("phantom"), xmrobust.WithResume())...)
	if err == nil {
		t.Fatal("resume on a different target was accepted")
	}
	if !strings.Contains(err.Error(), `"sim"`) || !strings.Contains(err.Error(), `"phantom"`) {
		t.Fatalf("mismatch error does not name both targets: %v", err)
	}
	// Resuming on the recorded target still works.
	rep, err := xmrobust.Run(append(base,
		xmrobust.WithTarget("sim"), xmrobust.WithResume())...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped() != 6 || rep.Executed() != 0 {
		t.Fatalf("resume skipped %d / executed %d, want 6 / 0", rep.Skipped(), rep.Executed())
	}
}

func TestInventoriesListPlansAndTargets(t *testing.T) {
	plans := map[string]bool{}
	for _, p := range xmrobust.Plans() {
		plans[p.Name] = true
		if p.Desc == "" {
			t.Errorf("plan %q has no description", p.Name)
		}
	}
	for _, want := range []string{"exhaustive", "pairwise", "rand", "boundary", "feedback", "phantom"} {
		if !plans[want] {
			t.Errorf("plan inventory lacks %q", want)
		}
	}
	targets := map[string]bool{}
	for _, tg := range xmrobust.Targets() {
		targets[tg.Name] = true
	}
	for _, want := range []string{"sim", "phantom", "diff"} {
		if !targets[want] {
			t.Errorf("target inventory lacks %q", want)
		}
	}
}

func TestDiffCampaignReportsDivergences(t *testing.T) {
	// One worker keeps the summary's machine-pool line deterministic, so
	// the two runs' summaries compare byte for byte.
	rep, err := xmrobust.Run(
		xmrobust.WithPlan("rand:30"),
		xmrobust.WithSeed(7),
		xmrobust.WithMAFs(1),
		xmrobust.WithTarget("diff:sim,phantom"),
		xmrobust.WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	divs := rep.Divergences()
	if len(divs) == 0 {
		t.Fatal("diff campaign over the legacy kernel found no divergences")
	}
	for i := 1; i < len(divs); i++ {
		if divs[i].Seq <= divs[i-1].Seq {
			t.Fatalf("divergences out of campaign order: %d after %d", divs[i].Seq, divs[i-1].Seq)
		}
	}
	if !strings.Contains(rep.Summary(), "DIVERGENCES") {
		t.Fatal("summary lacks the divergence section")
	}
	// Determinism: the same seeded diff campaign reproduces the same
	// divergence set (the property make diff-smoke pins in CI).
	rep2, err := xmrobust.Run(
		xmrobust.WithPlan("rand:30"),
		xmrobust.WithSeed(7),
		xmrobust.WithMAFs(1),
		xmrobust.WithTarget("diff:sim,phantom"),
		xmrobust.WithWorkers(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary() != rep2.Summary() {
		t.Fatal("seeded diff campaign is not deterministic")
	}
}

func TestPhantomPlanOnPhantomTarget(t *testing.T) {
	// The §V suite runs on the model too: 50 predictions, no simulator.
	rep, err := xmrobust.Run(
		xmrobust.WithPlan("phantom"),
		xmrobust.WithTarget("phantom"),
		xmrobust.WithMAFs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() != 50 {
		t.Fatalf("phantom plan = %d tests, want 50", rep.Total())
	}
	if n := rep.HarnessErrors(); n != 0 {
		t.Fatalf("%d harness errors", n)
	}
}

func TestRunOneAndClassify(t *testing.T) {
	header := xmrobust.DefaultHeader()
	f, ok := header.Function("XM_set_timer")
	if !ok {
		t.Fatal("no XM_set_timer")
	}
	m, err := xmrobust.BuildMatrix(f, xmrobust.BuiltinDict())
	if err != nil {
		t.Fatal(err)
	}
	res, err := xmrobust.RunOne(m.Datasets()[0], xmrobust.WithMAFs(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != "" {
		t.Fatal(res.RunErr)
	}
	issues, err := xmrobust.Classify([]xmrobust.Result{res})
	if err != nil {
		t.Fatal(err)
	}
	_ = issues // one benign test may legitimately raise nothing
}

func TestWithFunctionRestrictsCampaign(t *testing.T) {
	rep, err := xmrobust.Run(
		xmrobust.WithFunction("XM_get_time"),
		xmrobust.WithMAFs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results() {
		if res.Dataset.Func.Name != "XM_get_time" {
			t.Fatalf("campaign leaked %s", res.Dataset.Func.Name)
		}
	}
	if _, err := xmrobust.Run(xmrobust.WithFunction("XM_nope")); err == nil {
		t.Fatal("unknown hypercall accepted")
	}
}

func TestNewSystemBootsAndFlies(t *testing.T) {
	k, err := xmrobust.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunMajorFrames(2); err != nil {
		t.Fatal(err)
	}
	if st := k.Status(); st.State != xmrobust.KStateRunning {
		t.Fatalf("kernel %v after nominal flight", st.State)
	}
	rep, err := xmrobust.TestbedStatus(k)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PartitionsUp == 0 {
		t.Fatal("FDIR saw no partitions up")
	}
}

// TestWithInjectionValidatesRate: the facade rejects rates outside
// (0, 1] up front — including NaN, which slips through naive comparison
// guards — instead of silently running the schedule default.
func TestWithInjectionValidatesRate(t *testing.T) {
	for _, rate := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := xmrobust.Run(
			xmrobust.WithTarget("inject:sim"),
			xmrobust.WithInjection(rate),
		); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	// A schedule aimed at a target that never injects is a user mistake
	// (zero faults would be injected); it is rejected by name.
	for _, tgt := range []string{"", "sim", "phantom", "diff:sim,phantom"} {
		_, err := xmrobust.Run(xmrobust.WithTarget(tgt), xmrobust.WithInjection(1))
		if err == nil || !strings.Contains(err.Error(), "inject:*") {
			t.Errorf("target %q with WithInjection: %v", tgt, err)
		}
	}
	// A diff-wrapped inject leg injects; the pairing is legitimate.
	if _, err := xmrobust.Run(
		xmrobust.WithTarget("diff:phantom,inject:sim"),
		xmrobust.WithPlan("rand:3"), xmrobust.WithMAFs(1),
		xmrobust.WithInjection(1, "ram"),
	); err != nil {
		t.Errorf("diff-wrapped inject rejected: %v", err)
	}
	rep, err := xmrobust.Run(
		xmrobust.WithTarget("inject:sim"),
		xmrobust.WithPlan("rand:5"),
		xmrobust.WithSeed(1),
		xmrobust.WithMAFs(1),
		xmrobust.WithInjection(1, "ram"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Summary(), "SEU FAULT INJECTION") {
		t.Fatal("injected facade campaign reports no SEU section")
	}
}
