package xmrobust_test

import (
	"reflect"
	"strings"
	"testing"

	"xmrobust/internal/campaign"
	"xmrobust/pkg/xmrobust"
)

// TestPlanCatalogue pins every plan spec campaign.BuildPlan resolves, at
// seed 1: its strategy, length and fingerprint. A checkpoint records the
// fingerprint, so a moved one would stop existing checkpoints resuming.
// It also pins the refusals of malformed specs and the (name,
// description) pairs that xmrobust.Plans and xmfuzz -list print.
func TestPlanCatalogue(t *testing.T) {
	const suite, phantom = "6d355b368d87343a", "a74a2989b7b07a90"
	for _, tc := range []struct {
		spec, strategy string
		n              int
		fp             string
	}{
		{"", "exhaustive", 2661, "exhaustive/" + suite},
		{"exhaustive", "exhaustive", 2661, "exhaustive/" + suite},
		{"pairwise", "pairwise", 1009, "pairwise/" + suite},
		{"rand:300", "rand:300", 300, "rand:300@1/" + suite},
		{"rand:0300", "rand:300", 300, "rand:300@1/" + suite},
		{"rand:+300", "rand:300", 300, "rand:300@1/" + suite},
		{"boundary", "boundary", 381, "boundary/" + suite},
		{"feedback:100", "feedback:100", 100, "feedback:100@1/" + suite},
		{"phantom", "phantom", 50, "phantom/" + phantom},
	} {
		p, _, err := campaign.BuildPlan(campaign.Options{Plan: tc.spec, Seed: 1})
		if err != nil {
			t.Errorf("plan %q: %v", tc.spec, err)
			continue
		}
		if p.Strategy() != tc.strategy || p.Len() != tc.n || p.Fingerprint() != tc.fp {
			t.Errorf("plan %q = %s, %d tests, %s; want %s, %d, %s",
				tc.spec, p.Strategy(), p.Len(), p.Fingerprint(), tc.strategy, tc.n, tc.fp)
		}
	}

	for spec, want := range map[string]string{
		"rand":        `testgen: plan "rand" needs a positive count, e.g. "rand:100" (got "")`,
		"feedback":    `corpus: plan "feedback" needs a positive test count, e.g. "feedback:300" (got "")`,
		"feedback:-3": `corpus: plan "feedback" needs a positive test count, e.g. "feedback:300" (got "-3")`,
		"phantom:x":   `target: plan "phantom" takes no argument`,
		"pairwise:3":  `testgen: plan "pairwise" takes no argument`,
	} {
		_, _, err := campaign.BuildPlan(campaign.Options{Plan: spec, Seed: 1})
		if err == nil || err.Error() != want {
			t.Errorf("plan %q: error %v, want %q", spec, err, want)
		}
	}
	names := []string{"boundary", "exhaustive", "feedback", "pairwise", "phantom", "rand"}
	_, _, err := campaign.BuildPlan(campaign.Options{Plan: "bogus"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("unknown plan: %v", err)
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-plan error does not list %q: %v", name, err)
		}
	}

	want := []xmrobust.PlanInfo{
		{Name: "boundary", Desc: "nominal base + all-invalid + one-factor invalid/boundary sweep"},
		{Name: "exhaustive", Desc: "the complete Eq. 1 cartesian product (the paper's campaign)"},
		{Name: "feedback", Desc: "feedback:N — coverage-guided loop: boundary seeds, then corpus-bred mutants"},
		{Name: "pairwise", Desc: "greedy 2-way covering array: every value pair at a fraction of Eq. 1"},
		{Name: "phantom", Desc: "§V extension: every parameter-less hypercall under every phantom system state"},
		{Name: "rand", Desc: "rand:N — N datasets sampled without replacement, seed-reproducible"},
	}
	if got := xmrobust.Plans(); !reflect.DeepEqual(got, want) {
		t.Errorf("Plans() = %q\nwant %q", got, want)
	}
}
