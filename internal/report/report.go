// Package report renders the paper's tables and figures from campaign
// outcomes: Table I (XM data types), Table II (a data-type test-value
// set), Table III (the test campaign), Fig. 8 (the campaign distribution),
// and the issue list of §IV.C. Each renderer produces aligned text for the
// terminal; TableIIICSV produces machine-readable output for plots.
package report

import (
	"fmt"
	"strings"

	"xmrobust/internal/analysis"
	"xmrobust/internal/core"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/testgen"
	"xmrobust/internal/xm"
)

// table is a minimal aligned-text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// TableI renders the paper's Table I: the XM interface data types.
func TableI() string {
	t := &table{header: []string{"XM Basic Type", "XM Extended Types", "Size (bits)", "ANSI C Type"}}
	for _, dt := range xm.DataTypes() {
		if dt.Pointer {
			continue // Table I lists the value types
		}
		t.add(dt.Name, dt.Extended, fmt.Sprintf("%d", dt.Bits), dt.C)
	}
	return "TABLE I. XTRATUM DATA TYPES\n\n" + t.String()
}

// TableII renders the paper's Table II: the test-value set of one data
// type from the dictionary (the paper shows xm_s32_t).
func TableII(d *dict.Dictionary, typeName string) string {
	ts, ok := d.Type(typeName)
	if !ok {
		return fmt.Sprintf("no dictionary for %s\n", typeName)
	}
	t := &table{header: []string{"Test Data", "Description", "Validity"}}
	for _, v := range ts.Values {
		t.add(v.Raw, v.Desc, v.Validity.String())
	}
	return fmt.Sprintf("TABLE II. DATA TYPE TEST-VALUE-SET (%s, range of %s)\n\n%s",
		ts.Name, ts.BasicType, t.String())
}

// TableIII renders the paper's Table III: the campaign per category.
func TableIII(rep *core.CampaignReport) string {
	t := &table{header: []string{
		"Hypercall Category", "Total Hypercalls", "Hypercalls tested", "No. of Tests", "Raised Issues",
	}}
	for _, row := range rep.TableIII() {
		t.add(string(row.Category),
			fmt.Sprintf("%d", row.TotalHypercalls),
			fmt.Sprintf("%d", row.Tested),
			fmt.Sprintf("%d", row.Tests),
			fmt.Sprintf("%d", row.Issues))
	}
	return "TABLE III. XTRATUM TEST CAMPAIGN\n\n" + t.String()
}

// TableIIICSV renders Table III as CSV.
func TableIIICSV(rep *core.CampaignReport) string {
	var b strings.Builder
	b.WriteString("category,total_hypercalls,hypercalls_tested,tests,raised_issues\n")
	for _, row := range rep.TableIII() {
		fmt.Fprintf(&b, "%q,%d,%d,%d,%d\n",
			row.Category, row.TotalHypercalls, row.Tested, row.Tests, row.Issues)
	}
	return b.String()
}

// Distribution is the data behind the paper's Fig. 8: how the hypercall
// inventory splits into tested, untested-with-parameters and untested
// parameter-less calls.
type Distribution struct {
	Tested            int
	UntestedWithParam int
	UntestedNoParam   int
}

// Total returns the hypercall count.
func (d Distribution) Total() int { return d.Tested + d.UntestedWithParam + d.UntestedNoParam }

// Pct returns n as a percentage of the total.
func (d Distribution) Pct(n int) float64 {
	if d.Total() == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d.Total())
}

// ComputeDistribution derives the Fig. 8 shares from a campaign report.
func ComputeDistribution(rep *core.CampaignReport) Distribution {
	var d Distribution
	for _, spec := range xm.Hypercalls() {
		switch {
		case rep.TestsByFunc[spec.Name] > 0:
			d.Tested++
		case spec.NumParams() == 0:
			d.UntestedNoParam++
		default:
			d.UntestedWithParam++
		}
	}
	return d
}

// Fig8 renders the campaign distribution as a text bar chart.
func Fig8(rep *core.CampaignReport) string {
	d := ComputeDistribution(rep)
	var b strings.Builder
	b.WriteString("FIG. 8. XTRATUM TEST CAMPAIGN DISTRIBUTION\n\n")
	bar := func(label string, n int) {
		pct := d.Pct(n)
		fmt.Fprintf(&b, "%-32s %2d (%5.1f%%) %s\n", label, n, pct,
			strings.Repeat("#", int(pct/2)))
	}
	bar("Hypercalls tested", d.Tested)
	bar("Untested (with parameters)", d.UntestedWithParam)
	bar("Untested (no parameters)", d.UntestedNoParam)
	untested := d.UntestedWithParam + d.UntestedNoParam
	if untested > 0 {
		fmt.Fprintf(&b, "\n%.0f%% of untested calls take no parameters\n",
			100*float64(d.UntestedNoParam)/float64(untested))
	}
	return b.String()
}

// Issues renders the §IV.C findings section.
func Issues(rep *core.CampaignReport) string {
	return analysis.Summary(rep.Issues)
}

// Verdicts renders the CRASH-scale tally.
func Verdicts(rep *core.CampaignReport) string {
	t := &table{header: []string{"CRASH verdict", "Tests"}}
	for _, v := range []analysis.Verdict{
		analysis.Catastrophic, analysis.Restart, analysis.Abort,
		analysis.Silent, analysis.Hindering, analysis.Pass,
	} {
		t.add(v.String(), fmt.Sprintf("%d", rep.Verdicts[v]))
	}
	return "CRASH SEVERITY TALLY\n\n" + t.String()
}

// PlanLine renders a plan's coverage statistics as the one-line header of
// a campaign report. For an exhaustive plan (no reduction) it stays
// minimal.
func PlanLine(st testgen.PlanStats) string {
	if st.Strategy == testgen.StrategyExhaustive || st.Strategy == "" {
		return fmt.Sprintf("plan exhaustive: all %d datasets of Eq. 1\n", st.Tests)
	}
	return st.String() + "\n"
}

// CoverageSection renders the kernel-edge-coverage section of a report:
// the frontier size and signature, the feedback loop's corpus accounting
// and the edges-discovered-over-time curve. Empty when collection was
// off.
func CoverageSection(cs core.CoverageStats) string {
	if !cs.Enabled {
		return ""
	}
	var b strings.Builder
	b.WriteString("KERNEL EDGE COVERAGE\n\n")
	fmt.Fprintf(&b, "kernel edges discovered: %d (%.2f%% of the %d-site map), signature %016x\n",
		cs.Edges, 100*float64(cs.Edges)/float64(cover.NumSites), cover.NumSites, cs.Signature)
	if lp := cs.Loop; lp != nil {
		fmt.Fprintf(&b, "corpus: %d members (%d loaded from file), %d seed tests, %d results folded into the loop\n",
			lp.Corpus, lp.Loaded, lp.Seeds, lp.Executed)
		if curve := historyQuartiles(lp.History); curve != "" {
			fmt.Fprintf(&b, "edges over time: %s\n", curve)
		}
	}
	return b.String()
}

// historyQuartiles compresses the per-test frontier curve to its
// quartile checkpoints.
func historyQuartiles(h []int) string {
	if len(h) == 0 {
		return ""
	}
	var parts []string
	for _, q := range []int{25, 50, 75, 100} {
		i := len(h)*q/100 - 1
		if i < 0 {
			i = 0
		}
		parts = append(parts, fmt.Sprintf("%d%%: %d", q, h[i]))
	}
	return strings.Join(parts, "  ")
}

// InjectionSection renders the SEU fault-injection section of a report:
// the campaign-wide outcome tally and the per-site masking-rate table.
// Empty when the campaign injected nothing.
func InjectionSection(st *analysis.InjectionStudy) string {
	if st.Empty() {
		return ""
	}
	return analysis.InjectionSummary(st)
}

// maxDivergenceLines caps the per-test listing of the divergence
// section; the full list lives in the campaign log records.
const maxDivergenceLines = 25

// DivergenceSection renders the divergence-oracle section of a report:
// every test where the two backends of a diff target disagreed on an
// observable. Empty when the campaign ran on a single backend; a diff
// campaign with full agreement renders the (reportable) zero line.
func DivergenceSection(targetName string, total int, divs []core.DivergenceFinding) string {
	if len(divs) == 0 && !strings.HasPrefix(targetName, "diff:") {
		return ""
	}
	var b strings.Builder
	b.WriteString("DIVERGENCES (backend disagreement oracle)\n\n")
	fmt.Fprintf(&b, "target %s: %d of %d tests diverged\n", targetName, len(divs), total)
	for i, d := range divs {
		if i == maxDivergenceLines {
			fmt.Fprintf(&b, "  … and %d more (see the campaign log records)\n", len(divs)-i)
			break
		}
		fmt.Fprintf(&b, "  #%d %s\n", d.Seq, d.Dataset)
		fmt.Fprintf(&b, "      %s | %s\n", d.Divergence.Targets[0]+" vs "+d.Divergence.Targets[1], d.Divergence.String())
	}
	return b.String()
}

// Full renders the complete campaign report: the plan coverage line,
// Table III, the CRASH tally, Fig. 8, the issue list, the coverage,
// divergence and injection sections (when the campaign produced them)
// and the engine's own accounting (pool efficiency, resume skips,
// harness errors).
func Full(rep *core.CampaignReport) string {
	var b strings.Builder
	b.WriteString(PlanLine(rep.Plan))
	b.WriteByte('\n')
	b.WriteString(TableIII(rep))
	b.WriteByte('\n')
	b.WriteString(Verdicts(rep))
	b.WriteByte('\n')
	b.WriteString(Fig8(rep))
	b.WriteByte('\n')
	b.WriteString(Issues(rep))
	b.WriteByte('\n')
	if cov := CoverageSection(rep.Coverage); cov != "" {
		b.WriteByte('\n')
		b.WriteString(cov)
	}
	if div := DivergenceSection(rep.Target, rep.Total, rep.Divergences); div != "" {
		b.WriteByte('\n')
		b.WriteString(div)
	}
	if inj := InjectionSection(rep.Injection); inj != "" {
		b.WriteByte('\n')
		b.WriteString(inj)
	}
	fmt.Fprintf(&b, "\nengine: %d tests (%d executed, %d resumed from checkpoint)\n",
		rep.Total, rep.Executed, rep.Skipped)
	p := rep.Engine.Pool
	if p.Allocated+p.Reused > 0 {
		fmt.Fprintf(&b, "machine pool: %d allocated, %d recycled, %d discarded\n",
			p.Allocated, p.Reused, p.Discarded)
	}
	if rep.HarnessErrors > 0 {
		fmt.Fprintf(&b, "harness errors: %d\n", rep.HarnessErrors)
	}
	return b.String()
}

// StreamSummary is Full, kept for callers written against the name.
func StreamSummary(rep *core.CampaignReport) string { return Full(rep) }
