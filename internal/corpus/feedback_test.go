package corpus

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/testgen"
)

// fakeCoverage derives a deterministic coverage map from a dataset, as a
// stand-in kernel: each (function, parameter, value-index) lights one
// site, so datasets with unseen value choices find new edges.
func fakeCoverage(fn int, tuple []int) *cover.Map {
	m := &cover.Map{}
	m.Hit(uint32(fn))
	for p, v := range tuple {
		m.Hit(uint32(1000 + fn*97 + p*31 + v))
	}
	return m
}

// runLoop drives a feedback plan the way the engine does, sequentially,
// returning the emitted dataset strings.
func runLoop(t *testing.T, p *FeedbackPlan) []string {
	t.Helper()
	out := make([]string, p.Len())
	for i := 0; i < p.Len(); i++ {
		ds := p.At(i)
		out[i] = ds.String()
		p.Feedback(i, fakeCoverage(p.fns[i], p.tuples[i]))
	}
	return out
}

func TestFeedbackPlanReproducible(t *testing.T) {
	space := testSpace(t)
	const n = 120
	a, err := NewFeedbackPlan(space, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFeedbackPlan(space, n, 7)
	if err != nil {
		t.Fatal(err)
	}
	da, db := runLoop(t, a), runLoop(t, b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("position %d: %q vs %q — seeded runs must be byte-identical", i, da[i], db[i])
		}
	}
	c, err := NewFeedbackPlan(space, n, 8)
	if err != nil {
		t.Fatal(err)
	}
	dc := runLoop(t, c)
	same := true
	for i := range da {
		if da[i] != dc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds share a fingerprint")
	}
	st := a.Stats()
	if st.Executed != n || len(st.History) != n {
		t.Fatalf("stats executed %d / history %d, want %d", st.Executed, len(st.History), n)
	}
	if st.Edges == 0 || st.Corpus == 0 {
		t.Fatalf("loop admitted nothing: %+v", st)
	}
	// The frontier curve is monotone non-decreasing.
	for i := 1; i < len(st.History); i++ {
		if st.History[i] < st.History[i-1] {
			t.Fatalf("edge history decreased at %d: %v", i, st.History[i-1:i+1])
		}
	}
}

// TestFeedbackPlanIsDynamic: the plan is flagged dynamic, so Measure
// reports it analytically instead of walking an At that blocks on
// execution feedback.
func TestFeedbackPlanIsDynamic(t *testing.T) {
	p, err := NewFeedbackPlan(testSpace(t), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !testgen.IsDynamic(p) {
		t.Fatal("feedback plan not flagged dynamic")
	}
	if p.Len() != 50 || p.Strategy() != "feedback:50" {
		t.Fatalf("Len %d Strategy %q", p.Len(), p.Strategy())
	}
	st := testgen.Measure(p)
	if !st.Dynamic || st.Tests != 50 || st.Exhaustive == 0 {
		t.Fatalf("Measure = %+v", st)
	}
}

// TestFeedbackPlanRefusesOverflow: exploration draws a global rank of the
// whole Eq. 1 space, so a space whose size overflows int64 is refused,
// as rand:N refuses it. Summed without saturation, two saturated
// hypercalls plus one of three datasets wrap to a total of 1: a plan
// that could only ever draw rank 0.
func TestFeedbackPlanRefusesOverflow(t *testing.T) {
	d := dict.NewDictionary()
	vals := make([]dict.Value, 256)
	for i := range vals {
		vals[i] = dict.Value{Raw: strconv.Itoa(i)}
	}
	d.AddType(dict.TypeSet{Name: "xm_u32_t", Values: vals})
	d.AddType(dict.TypeSet{Name: "xm_s32_t", Values: vals[:3]})
	h := &apispec.Header{}
	for _, name := range []string{"A", "B"} {
		f := apispec.Function{Name: name, Tested: "YES"}
		for i := 0; i < 9; i++ { // 256^9 saturates Eq. 1 at MaxInt64
			f.Params = append(f.Params, apispec.Parameter{Name: "p" + strconv.Itoa(i), Type: "xm_u32_t"})
		}
		h.Functions = append(h.Functions, f)
	}
	h.Functions = append(h.Functions, apispec.Function{Name: "C", Tested: "YES",
		Params: []apispec.Parameter{{Name: "p", Type: "xm_s32_t"}}})
	space, err := testgen.NewSpace(h, d)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewFeedbackPlan(space, 10, 1)
	if err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Fatalf("overflowing space: %v, want an overflow refusal", err)
	}
}

func TestFeedbackPlanBlocksUntilFed(t *testing.T) {
	space := testSpace(t)
	p, err := NewFeedbackPlan(space, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	nSeeds := len(p.seeds)
	if nSeeds == 0 || nSeeds >= 40 {
		t.Fatalf("seed schedule of %d leaves no mutation region", nSeeds)
	}
	// Seed positions are available without any feedback.
	for i := 0; i < nSeeds; i++ {
		p.At(i)
	}
	got := make(chan string, 1)
	go func() {
		ds := p.At(nSeeds) // first bred position: must block
		got <- ds.String()
	}()
	select {
	case s := <-got:
		t.Fatalf("At(%d) returned %q before any feedback", nSeeds, s)
	case <-time.After(20 * time.Millisecond):
	}
	// Deliver feedback out of order: the plan buffers the gap.
	for i := nSeeds - 1; i >= 0; i-- {
		p.Feedback(i, fakeCoverage(p.fns[i], p.tuples[i]))
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatalf("At(%d) still blocked after all feedback arrived", nSeeds)
	}
	// Duplicate and out-of-range feedback are ignored.
	p.Feedback(0, mapOf(1))
	p.Feedback(10_000, mapOf(1))
}

func TestFeedbackPlanCorpusFileRoundTrip(t *testing.T) {
	space := testSpace(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	a, err := NewFeedbackPlan(space, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UseCorpusFile(path); err != nil {
		t.Fatal(err)
	}
	runLoop(t, a)
	admitted := a.Stats().Corpus
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}

	// The same campaign re-attaching (a resume) re-derives its own
	// admissions instead of loading them as parents — loading them
	// would change the breeding schedule and break exact replay.
	sameFP, err := NewFeedbackPlan(space, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFP.UseCorpusFile(path); err != nil {
		t.Fatal(err)
	}
	if got := sameFP.Stats(); got.Loaded != 0 {
		t.Fatalf("same-fingerprint attach loaded %d parents, want 0 (own admissions re-derive)", got.Loaded)
	}
	sameFP.Close()

	// A different campaign (different seed → different fingerprint)
	// loads every admission as a mutation parent.
	b, err := NewFeedbackPlan(space, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UseCorpusFile(path); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Stats(); got.Loaded != admitted {
		t.Fatalf("second campaign loaded %d parents, want %d", got.Loaded, admitted)
	}
	runLoop(t, b)
}
