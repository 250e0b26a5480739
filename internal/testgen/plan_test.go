package testgen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
)

func mustPlan(t *testing.T, spec string, seed int64) Plan {
	t.Helper()
	h, d := defaultInputs()
	p, err := NewPlan(spec, h, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExhaustivePlanGolden: the exhaustive plan must emit the exact
// datasets, order and indexes of the seed's eager generator — the lazy
// stream is a pure re-addressing of the same enumeration.
func TestExhaustivePlanGolden(t *testing.T) {
	h, d := defaultInputs()
	eager, err := Generate(h, d)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, StrategyExhaustive, 0)
	if p.Len() != len(eager) {
		t.Fatalf("plan emits %d datasets, generator %d", p.Len(), len(eager))
	}
	for i, ds := range All(p) {
		if !reflect.DeepEqual(ds, eager[i]) {
			t.Fatalf("dataset %d diverged:\nplan:      %+v\ngenerator: %+v", i, ds, eager[i])
		}
	}
	// Random access agrees with sequential order.
	for _, i := range []int{0, 1, 17, 980, p.Len() - 1} {
		if got := p.At(i).String(); got != eager[i].String() {
			t.Fatalf("At(%d) = %s, want %s", i, got, eager[i])
		}
	}
	// The analytic exhaustive measurement must match reality: full pair
	// coverage over the default spec's 1472 value pairs, no reduction.
	st := Measure(p)
	if st.Tests != 2661 || st.Exhaustive != 2661 || st.Reduction() != 1 {
		t.Fatalf("exhaustive stats = %+v", st)
	}
	if st.PairsTotal != 1472 || st.PairsCovered != st.PairsTotal {
		t.Fatalf("exhaustive pair coverage = %d/%d, want 1472/1472", st.PairsCovered, st.PairsTotal)
	}
}

// TestPairwiseCoversEveryPair is the plan's defining property: every pair
// of dictionary values across every parameter pair of every tested
// hypercall appears in at least one emitted dataset.
func TestPairwiseCoversEveryPair(t *testing.T) {
	p := mustPlan(t, StrategyPairwise, 0)
	type pairKey struct {
		fn             string
		pi, pj, vi, vj int
	}
	uncovered := map[pairKey]bool{}
	for _, m := range p.Suite() {
		for i := 0; i < len(m.Rows); i++ {
			for j := i + 1; j < len(m.Rows); j++ {
				for vi := range m.Rows[i] {
					for vj := range m.Rows[j] {
						uncovered[pairKey{m.Func.Name, i, j, vi, vj}] = true
					}
				}
			}
		}
	}
	total := len(uncovered)
	// Map each dataset's values back to row indexes and strike the pairs.
	rows := map[string][][]dict.Value{}
	for _, m := range p.Suite() {
		rows[m.Func.Name] = m.Rows
	}
	for _, ds := range All(p) {
		r := rows[ds.Func.Name]
		vidx := make([]int, len(ds.Values))
		for i, v := range ds.Values {
			vidx[i] = -1
			for x, rv := range r[i] {
				if rv == v {
					vidx[i] = x
					break
				}
			}
			if vidx[i] < 0 {
				t.Fatalf("%s: value %s not in row %d", ds, v, i)
			}
		}
		for i := 0; i < len(vidx); i++ {
			for j := i + 1; j < len(vidx); j++ {
				delete(uncovered, pairKey{ds.Func.Name, i, j, vidx[i], vidx[j]})
			}
		}
	}
	if len(uncovered) != 0 {
		t.Fatalf("%d of %d value pairs uncovered, e.g. %+v", len(uncovered), total, firstKey(uncovered))
	}
}

func firstKey[K comparable](m map[K]bool) K {
	for k := range m {
		return k
	}
	var zero K
	return zero
}

// TestPairwiseReduction pins the plan's size and coverage on the default
// spec. Note the reduction ceiling: covering every value pair of a
// two-parameter hypercall requires its full cartesian product, and the
// default spec's per-function two-largest-row products sum to 1006 tests
// — so 2.65x is the best ANY 100%-pair-coverage plan can do against the
// 2661 of Eq. 1, and the greedy array must land within ~15% of that
// optimum. (The multiplicative blowup pairwise exists to tame shows up
// on >=3-parameter hypercalls: XM_memory_copy alone drops ~4.5x.)
func TestPairwiseReduction(t *testing.T) {
	p := mustPlan(t, StrategyPairwise, 0)
	st := Measure(p)
	if st.PairCoverage() != 1 {
		t.Fatalf("pair coverage = %v (%d/%d), want 100%%", st.PairCoverage(), st.PairsCovered, st.PairsTotal)
	}
	if st.Exhaustive != 2661 {
		t.Fatalf("Eq. 1 total = %d, want 2661", st.Exhaustive)
	}
	const optimum = 1006 // sum of two-largest-row products per function
	if st.Tests < optimum {
		t.Fatalf("pairwise plan has %d tests — below the %d lower bound, coverage must be broken", st.Tests, optimum)
	}
	if st.Tests > optimum*115/100 {
		t.Fatalf("pairwise plan has %d tests, more than 15%% above the %d-test optimum", st.Tests, optimum)
	}
	if st.Reduction() < 2.3 {
		t.Fatalf("reduction = %.2fx, want >= 2.3x", st.Reduction())
	}
	// Where reduction is possible it must be substantial: the >=3-param
	// hypercalls compress >= 3x together.
	eq1, tests := int64(0), 0
	big := map[string]bool{}
	for _, m := range p.Suite() {
		if len(m.Rows) >= 3 {
			big[m.Func.Name] = true
			eq1 += m.Combinations64()
		}
	}
	for _, ds := range All(p) {
		if big[ds.Func.Name] {
			tests++
		}
	}
	if float64(eq1)/float64(tests) < 3 {
		t.Fatalf(">=3-param hypercalls: %d tests for Eq. 1 = %d, want >= 3x reduction", tests, eq1)
	}
}

// TestRandPlanDeterministic: a fixed seed must reproduce the byte-identical
// plan across constructions, and different seeds must differ.
func TestRandPlanDeterministic(t *testing.T) {
	render := func(p Plan) string {
		var b strings.Builder
		for _, ds := range All(p) {
			b.WriteString(ds.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	a := mustPlan(t, "rand:200", 42)
	b := mustPlan(t, "rand:200", 42)
	if a.Len() != 200 {
		t.Fatalf("rand:200 emitted %d datasets", a.Len())
	}
	if ra, rb := render(a), render(b); ra != rb {
		t.Fatal("same seed produced different plans")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed produced different fingerprints")
	}
	c := mustPlan(t, "rand:200", 43)
	if render(a) == render(c) {
		t.Fatal("different seeds produced the same sample")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("fingerprint ignores the seed: %s", a.Fingerprint())
	}
	// Without replacement: no duplicates, and every dataset is a member
	// of its function's exhaustive enumeration.
	seen := map[string]bool{}
	for _, ds := range All(a) {
		s := ds.String()
		if seen[s] {
			t.Fatalf("duplicate sample %s", s)
		}
		seen[s] = true
	}
	// Clamped when N exceeds the campaign.
	full := mustPlan(t, "rand:999999", 1)
	if full.Len() != 2661 {
		t.Fatalf("oversized sample emitted %d datasets, want the full 2661", full.Len())
	}
}

// TestBoundaryPlan: the boundary plan is a small, invalid-dense subset —
// every non-valid dictionary value of every parameter appears, and every
// dataset is either the nominal base, the all-invalid dataset, or a
// one-parameter deviation from the base.
func TestBoundaryPlan(t *testing.T) {
	p := mustPlan(t, StrategyBoundary, 0)
	if p.Len() >= 2661/2 {
		t.Fatalf("boundary plan has %d tests — not a reduced subset", p.Len())
	}
	// Every non-valid value of every row must be exercised.
	type want struct {
		fn   string
		p    int
		raw  string
		desc string
	}
	missing := map[want]bool{}
	for _, m := range p.Suite() {
		for pi, row := range m.Rows {
			for _, v := range row {
				if v.Validity != dict.Valid {
					missing[want{m.Func.Name, pi, v.Raw, v.Desc}] = true
				}
			}
		}
	}
	for _, ds := range All(p) {
		for pi, v := range ds.Values {
			delete(missing, want{ds.Func.Name, pi, v.Raw, v.Desc})
		}
	}
	if len(missing) != 0 {
		t.Fatalf("%d non-valid values never injected, e.g. %+v", len(missing), firstKey(missing))
	}
	st := Measure(p)
	if st.Reduction() < 4 {
		t.Fatalf("boundary reduction = %.2fx, want >= 4x", st.Reduction())
	}
}

// TestCombinationsSaturates: a dictionary big enough to overflow Eq. 1
// must saturate, not wrap — a wrapped (possibly negative or tiny) total
// would corrupt progress accounting and checkpoint signatures.
func TestCombinationsSaturates(t *testing.T) {
	row := make([]dict.Value, 3)
	for i := range row {
		row[i] = dict.Value{Raw: string(rune('0' + i))}
	}
	m := Matrix{Func: apispec.Function{Name: "F"}}
	for i := 0; i < 64; i++ { // 3^64 >> MaxInt64
		m.Rows = append(m.Rows, row)
	}
	if got := m.Combinations64(); got != math.MaxInt64 {
		t.Fatalf("Combinations64 = %d, want saturation at MaxInt64", got)
	}
	if got := m.Combinations(); got != math.MaxInt {
		t.Fatalf("Combinations = %d, want saturation at MaxInt", got)
	}
	if m.Combinations() < 0 {
		t.Fatal("Eq. 1 went negative")
	}
}

// TestExhaustivePlanRefusesOverflow: the lazy plan cannot address a
// saturated campaign and must say so instead of misbehaving.
func TestExhaustivePlanRefusesOverflow(t *testing.T) {
	d := dict.NewDictionary()
	vals := make([]dict.Value, 256)
	for i := range vals {
		vals[i] = dict.Value{Raw: "0x" + strings.Repeat("f", 1+i%8)}
	}
	d.AddType(dict.TypeSet{Name: "xm_u32_t", Values: vals})
	h := &apispec.Header{}
	f := apispec.Function{Name: "F", Tested: "YES"}
	for i := 0; i < 9; i++ { // 256^9 > MaxInt64
		f.Params = append(f.Params, apispec.Parameter{Name: "p", Type: "xm_u32_t"})
	}
	h.Functions = append(h.Functions, f)
	if _, err := NewPlan(StrategyExhaustive, h, d, 0); err == nil {
		t.Fatal("oversized exhaustive plan accepted")
	}
}

// TestPlanSpecParsing covers the spec grammar and its error paths.
func TestPlanSpecParsing(t *testing.T) {
	h, d := defaultInputs()
	for _, spec := range []string{"", "exhaustive"} {
		p, err := NewPlan(spec, h, d, 0)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if p.Strategy() != StrategyExhaustive || p.Len() != 2661 {
			t.Fatalf("%q -> %s with %d tests", spec, p.Strategy(), p.Len())
		}
	}
	for _, spec := range []string{"nope", "rand", "rand:", "rand:x", "rand:-3", "rand:0", "pairwise:5", "boundary:x", "exhaustive:3"} {
		if _, err := NewPlan(spec, h, d, 0); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	p, err := NewPlan("rand:10", h, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy() != "rand:10" {
		t.Fatalf("canonical spec = %q", p.Strategy())
	}
}

// TestPlanFingerprints: identity must shift with the strategy and with the
// suite content, and stay put across constructions.
func TestPlanFingerprints(t *testing.T) {
	h, d := defaultInputs()
	fps := map[string]string{}
	for _, spec := range []string{"exhaustive", "pairwise", "rand:50", "boundary"} {
		p, err := NewPlan(spec, h, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		fp := p.Fingerprint()
		for other, ofp := range fps {
			if ofp == fp {
				t.Fatalf("%s and %s share fingerprint %s", spec, other, fp)
			}
		}
		fps[spec] = fp
		again, _ := NewPlan(spec, h, d, 3)
		if again.Fingerprint() != fp {
			t.Fatalf("%s fingerprint unstable", spec)
		}
	}
	// A different dictionary is a different plan.
	stripped := dict.WithoutValid(d)
	p, err := NewPlan(StrategyExhaustive, h, stripped, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() == fps["exhaustive"] {
		t.Fatal("fingerprint ignores the dictionary")
	}
}

// TestPlanStatsString keeps the human rendering stable enough for reports.
func TestPlanStatsString(t *testing.T) {
	st := PlanStats{Strategy: "pairwise", Tests: 10, Exhaustive: 100, PairsCovered: 5, PairsTotal: 5}
	s := st.String()
	for _, want := range []string{"pairwise", "10 tests", "10.0x", "100.0%", "(5/5)"} {
		if !strings.Contains(s, want) {
			t.Errorf("PlanStats.String() = %q lacks %q", s, want)
		}
	}
}

// TestPlanAtAllocatesOnlyValues: decoding a dataset costs exactly one
// allocation, its value slice (a Result keeps it); the rank is decoded
// straight into the values, with no index tuple in between.
func TestPlanAtAllocatesOnlyValues(t *testing.T) {
	for _, spec := range []string{StrategyExhaustive, "rand:300"} {
		p := mustPlan(t, spec, 1)
		n := p.Len()
		perDataset := testing.AllocsPerRun(5, func() {
			for i := 0; i < n; i++ {
				p.At(i)
			}
		}) / float64(n)
		if perDataset != 1 {
			t.Errorf("%s: At makes %.3f allocations per dataset, want 1", spec, perDataset)
		}
	}
}
