package testgen

// This file is the lazy test-plan layer over the Fig. 4/Fig. 5 generator:
// instead of materialising the full Eq. 1 cartesian product, a Plan is a
// deterministic, index-addressable dataset stream. NewPlan builds four
// strategies:
//
//   - exhaustive:  the complete Eq. 1 product, byte-identical to the
//     eager generator's order (last parameter varies fastest, functions
//     in document order), addressed lazily — nothing is materialised.
//   - pairwise:    a greedy 2-way covering array per hypercall — every
//     pair of dictionary values across every parameter pair appears in
//     at least one dataset, at a fraction of the Eq. 1 test count.
//   - rand:N:      N datasets sampled uniformly without replacement from
//     the exhaustive stream, deterministically from a seed.
//   - boundary:    the invalid/boundary-value-dense subset: a nominal
//     base dataset per hypercall, the all-invalid dataset, and every
//     non-valid dictionary value injected one parameter at a time.
//
// Plans fingerprint their full identity (strategy, seed where it matters,
// and the spec/dictionary content) so campaign checkpoints can refuse to
// resume a different plan.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"iter"
	"math"
	"sort"
	"strconv"
	"strings"

	"xmrobust/internal/apispec"
	"xmrobust/internal/dict"
)

// Strategy names of the plans NewPlan builds.
const (
	StrategyExhaustive = "exhaustive"
	StrategyPairwise   = "pairwise"
	StrategyRand       = "rand"
	StrategyBoundary   = "boundary"
)

// Plan is a lazy, deterministic test-dataset stream: every dataset of the
// campaign is addressable by its position, so execution engines can
// checkpoint a cursor and resume without regenerating or retaining the
// suite. At must be safe for concurrent use — the campaign worker pool
// calls it from several goroutines.
type Plan interface {
	// Strategy returns the canonical plan spec ("exhaustive", "pairwise",
	// "rand:100", "boundary").
	Strategy() string
	// Len returns the number of datasets the plan emits.
	Len() int
	// At returns dataset i, 0 <= i < Len(), in plan order. The returned
	// Dataset's Index is its rank in the function's exhaustive
	// enumeration, so a dataset keeps its identity across plans.
	At(i int) Dataset
	// Fingerprint identifies the plan: strategy, seed (for randomised
	// strategies) and the spec/dictionary content it draws from.
	Fingerprint() string
	// Suite returns the per-function value matrices the plan draws from,
	// in document order.
	Suite() []Matrix
}

// All iterates a plan in order.
func All(p Plan) iter.Seq2[int, Dataset] {
	return func(yield func(int, Dataset) bool) {
		for i := 0; i < p.Len(); i++ {
			if !yield(i, p.At(i)) {
				return
			}
		}
	}
}

// Materialize renders a plan as the eager dataset slice the pre-plan APIs
// traffic in.
func Materialize(p Plan) []Dataset {
	out := make([]Dataset, p.Len())
	for i := range out {
		out[i] = p.At(i)
	}
	return out
}

// Pick addresses one selected dataset: the function's position in the
// suite and the dataset's rank within that function's exhaustive
// enumeration. Strategies emit picks; the plan resolves them lazily.
type Pick struct {
	Fn   int
	Rank int64
}

// IsDynamic reports whether a plan schedules its datasets on line (its
// At may block awaiting execution feedback). Dynamic plans cannot be
// walked outside an executing campaign: Measure skips them and
// Materialize must not be called on them.
func IsDynamic(p Plan) bool {
	d, ok := p.(interface{ Dynamic() bool })
	return ok && d.Dynamic()
}

// NewPlan builds the plan named by spec over the tested functions of the
// header. spec is "strategy" or "strategy:arg" ("" defaults to
// exhaustive); seed feeds rand:N. The campaign layer's plan catalogue
// resolves the plans built over this package (feedback:N, phantom) and
// hands the four strategies here.
func NewPlan(spec string, h *apispec.Header, d *dict.Dictionary, seed int64) (Plan, error) {
	name, arg, _ := strings.Cut(spec, ":")
	if name == "" {
		name = StrategyExhaustive
	}
	s, err := NewSpace(h, d)
	if err != nil {
		return nil, err
	}
	switch name {
	case StrategyExhaustive:
		if arg != "" {
			return nil, fmt.Errorf("testgen: plan %q takes no argument", name)
		}
		if s.total >= math.MaxInt64 || s.total > int64(math.MaxInt) {
			return nil, fmt.Errorf("testgen: exhaustive plan has %d+ datasets, beyond addressable range — use pairwise, boundary or rand:N", math.MaxInt)
		}
		return exhaustivePlan{s: s}, nil
	case StrategyPairwise, StrategyBoundary:
		if arg != "" {
			return nil, fmt.Errorf("testgen: plan %q takes no argument", name)
		}
		picks := pairwisePicks
		if name == StrategyBoundary {
			picks = BoundaryPicks
		}
		return pickPlan{s: s, strategy: name, picks: picks(s.matrices)}, nil
	case StrategyRand:
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("testgen: plan %q needs a positive count, e.g. %q (got %q)",
				StrategyRand, StrategyRand+":100", arg)
		}
		picks, err := randPicks(s, n, seed)
		if err != nil {
			return nil, err
		}
		// Named by the count as parsed, before clamping: rand:0300 is
		// rand:300, and rand:99999 keeps its fingerprint.
		return pickPlan{s: s, strategy: StrategyRand + ":" + strconv.Itoa(n), seeded: true, seed: seed, picks: picks}, nil
	}
	return nil, fmt.Errorf("testgen: unknown plan strategy %q (have %s, %s, %s, %s)",
		name, StrategyBoundary, StrategyExhaustive, StrategyPairwise, StrategyRand)
}

// --- space -------------------------------------------------------------

// Space is the shared substance of every plan over the Eq. 1 product:
// the tested functions' value matrices, prefix sums of their Eq. 1 sizes
// for rank addressing, and the content hash that anchors plan
// fingerprints. NewPlan builds one per plan; the coverage-guided
// feedback plan draws its exploration ranks through one too.
type Space struct {
	matrices []Matrix
	starts   []int64 // starts[i] = global exhaustive rank of matrices[i]'s first dataset
	total    int64   // Eq. 1 over the whole suite, saturating at MaxInt64
	overflow bool    // the sum saturated: ranks beyond MaxInt64 are unaddressable
	hash     string
}

// NewSpace builds the rank space over the tested functions of the
// header, in document order.
func NewSpace(h *apispec.Header, d *dict.Dictionary) (*Space, error) {
	s := &Space{}
	hsh := sha256.New()
	for _, f := range h.Tested() {
		m, err := BuildMatrix(f, d)
		if err != nil {
			return nil, err
		}
		s.starts = append(s.starts, s.total)
		s.matrices = append(s.matrices, m)
		n := m.Combinations64()
		if s.total > math.MaxInt64-n {
			s.total, s.overflow = math.MaxInt64, true
		} else {
			s.total += n
		}
		fmt.Fprintf(hsh, "%s(", f.Name)
		for pi, p := range f.Params {
			fmt.Fprintf(hsh, "%s %s;", p.Type, p.Name)
			for _, v := range m.Rows[pi] {
				fmt.Fprintf(hsh, "%s|%s|%s,", v.Raw, v.Desc, v.Validity)
			}
		}
		fmt.Fprint(hsh, ")\n")
	}
	s.hash = hex.EncodeToString(hsh.Sum(nil))[:16]
	return s, nil
}

// Matrices returns the per-function value matrices, in document order.
func (s *Space) Matrices() []Matrix { return s.matrices }

// Total returns Eq. 1 over the whole space, and false when the sum
// overflows int64: a plan that draws global ranks cannot address such a
// space.
func (s *Space) Total() (int64, bool) { return s.total, !s.overflow }

// Locate maps a global exhaustive rank to (function, local rank).
func (s *Space) Locate(rank int64) (int, int64) {
	i := sort.Search(len(s.starts), func(i int) bool { return s.starts[i] > rank }) - 1
	return i, rank - s.starts[i]
}

// Fingerprint composes the identity of a plan over the space: its
// strategy, its seed when the selection depends on one, and the content
// hash.
func (s *Space) Fingerprint(strategy string, seeded bool, seed int64) string {
	if seeded {
		return fmt.Sprintf("%s@%d/%s", strategy, seed, s.hash)
	}
	return strategy + "/" + s.hash
}

// --- exhaustive --------------------------------------------------------

// exhaustivePlan is the identity plan: dataset i of the plan is dataset i
// of the Eq. 1 enumeration. Nothing is materialised; At decodes the rank
// in mixed radix.
type exhaustivePlan struct{ s *Space }

func (p exhaustivePlan) Strategy() string { return StrategyExhaustive }
func (p exhaustivePlan) Len() int         { return int(p.s.total) }
func (p exhaustivePlan) Suite() []Matrix  { return p.s.matrices }
func (p exhaustivePlan) Fingerprint() string {
	return p.s.Fingerprint(StrategyExhaustive, false, 0)
}

func (p exhaustivePlan) At(i int) Dataset {
	fn, rank := p.s.Locate(int64(i))
	return p.s.matrices[fn].datasetAt(rank)
}

// --- pick-backed plans (pairwise, rand, boundary) ----------------------

// pickPlan resolves an explicit pick list lazily against the suite. The
// picks themselves are two words per dataset; the datasets are decoded on
// demand.
type pickPlan struct {
	s        *Space
	strategy string
	seeded   bool
	seed     int64
	picks    []Pick
}

func (p pickPlan) Strategy() string { return p.strategy }
func (p pickPlan) Len() int         { return len(p.picks) }
func (p pickPlan) Suite() []Matrix  { return p.s.matrices }
func (p pickPlan) Fingerprint() string {
	return p.s.Fingerprint(p.strategy, p.seeded, p.seed)
}

func (p pickPlan) At(i int) Dataset {
	pk := p.picks[i]
	return p.s.matrices[pk.Fn].datasetAt(pk.Rank)
}

// --- pairwise ----------------------------------------------------------

// pairwisePicks builds a greedy 2-way covering array per hypercall:
// every pair of values across every pair of parameters appears in at
// least one dataset. Hypercalls with one (or no) parameter degrade to
// each-value-once coverage. The greedy construction is deterministic:
// seeds are the first uncovered pair in (parameter pair, value pair)
// order, free parameters take the value covering the most still-uncovered
// pairs, ties to the lowest value index.
func pairwisePicks(suite []Matrix) []Pick {
	var picks []Pick
	for fn, m := range suite {
		for _, tuple := range pairwiseTuples(m) {
			picks = append(picks, Pick{Fn: fn, Rank: m.rankOf(tuple)})
		}
	}
	return picks
}

// pairwiseTuples returns the covering array of one matrix as value-index
// tuples, in generation order.
func pairwiseTuples(m Matrix) [][]int {
	k := len(m.Rows)
	switch k {
	case 0:
		return [][]int{{}}
	case 1:
		out := make([][]int, len(m.Rows[0]))
		for v := range out {
			out[v] = []int{v}
		}
		return out
	}

	// uncovered[pairIdx(i,j)][vi*nj+vj] tracks the pairs still to cover.
	type pairSet struct {
		i, j      int
		open      []bool
		remaining int
	}
	var sets []*pairSet
	remaining := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			n := len(m.Rows[i]) * len(m.Rows[j])
			ps := &pairSet{i: i, j: j, open: make([]bool, n), remaining: n}
			for x := range ps.open {
				ps.open[x] = true
			}
			sets = append(sets, ps)
			remaining += n
		}
	}
	at := func(ps *pairSet, vi, vj int) int { return vi*len(m.Rows[ps.j]) + vj }

	// gain counts the uncovered pairs a candidate value for parameter p
	// would close against the already-assigned parameters.
	gain := func(assign []int, p, v int) int {
		g := 0
		for _, ps := range sets {
			switch {
			case ps.i == p && assign[ps.j] >= 0:
				if ps.open[at(ps, v, assign[ps.j])] {
					g++
				}
			case ps.j == p && assign[ps.i] >= 0:
				if ps.open[at(ps, assign[ps.i], v)] {
					g++
				}
			}
		}
		return g
	}

	var out [][]int
	for remaining > 0 {
		// Seed with the first uncovered pair in deterministic order.
		assign := make([]int, k)
		for p := range assign {
			assign[p] = -1
		}
		seeded := false
		for _, ps := range sets {
			if ps.remaining == 0 {
				continue
			}
			for x, open := range ps.open {
				if open {
					assign[ps.i], assign[ps.j] = x/len(m.Rows[ps.j]), x%len(m.Rows[ps.j])
					seeded = true
					break
				}
			}
			if seeded {
				break
			}
		}
		// Fill the free parameters greedily.
		for p := 0; p < k; p++ {
			if assign[p] >= 0 {
				continue
			}
			best, bestGain := 0, -1
			for v := 0; v < len(m.Rows[p]); v++ {
				if g := gain(assign, p, v); g > bestGain {
					best, bestGain = v, g
				}
			}
			assign[p] = best
		}
		// Mark every pair of the finished tuple covered.
		for _, ps := range sets {
			x := at(ps, assign[ps.i], assign[ps.j])
			if ps.open[x] {
				ps.open[x] = false
				ps.remaining--
				remaining--
			}
		}
		out = append(out, assign)
	}
	return out
}

// --- rand:N ------------------------------------------------------------

// randPicks samples N datasets uniformly without replacement from the
// exhaustive stream, using Floyd's algorithm over a splitmix64 generator
// so a fixed seed reproduces the identical plan on any platform. The
// sample is emitted in exhaustive order. N greater than the campaign
// clamps to the whole campaign.
func randPicks(s *Space, n int, seed int64) ([]Pick, error) {
	total, ok := s.Total()
	if !ok {
		return nil, fmt.Errorf("testgen: plan %q: campaign size overflows int64", StrategyRand)
	}
	if int64(n) >= total {
		n = int(total)
	}
	// Floyd's sampling: for j in [total-n, total), draw t uniform on
	// [0, j]; take t unless already taken, then take j.
	rng := NewSplitMix64(seed)
	chosen := make(map[int64]struct{}, n)
	for j := total - int64(n); j < total; j++ {
		t := rng.Int63n(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
	}
	ranks := make([]int64, 0, n)
	for r := range chosen {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
	picks := make([]Pick, len(ranks))
	for i, r := range ranks {
		fn, rank := s.Locate(r)
		picks[i] = Pick{Fn: fn, Rank: rank}
	}
	return picks, nil
}

// SplitMix64 is a tiny, platform-stable PRNG (Steele et al.); seeded
// plans — rand:N and the corpus package's feedback loop — must reproduce
// byte-identically forever, which the stdlib generators do not promise
// across versions. The zero value is the seed-0 generator.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns the generator for a plan seed.
func NewSplitMix64(seed int64) SplitMix64 { return SplitMix64{state: uint64(seed)} }

// Next returns the next 64-bit draw.
func (r *SplitMix64) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n draws uniformly from [0, n) by rejection, bias-free.
func (r *SplitMix64) Int63n(n int64) int64 {
	bound := uint64(n)
	limit := uint64(1)<<63 - (uint64(1)<<63)%bound
	for {
		v := r.Next() >> 1
		if v < limit {
			return int64(v % bound)
		}
	}
}

// Intn draws uniformly from [0, n) for int-sized ranges.
func (r *SplitMix64) Intn(n int) int { return int(r.Int63n(int64(n))) }

// --- boundary ----------------------------------------------------------

// BoundaryPicks emits the invalid/boundary-value-dense subset of each
// hypercall: a nominal base dataset (every parameter at its first
// definitely-valid value, falling back to the first value), the
// all-invalid dataset (every parameter at its first definitely-invalid
// value, where one exists), then every non-valid dictionary value
// injected one parameter at a time over the base — the classic
// one-factor boundary sweep, sized linearly in the dictionary instead of
// multiplicatively. It is the boundary plan's selection and also the
// seed schedule of the coverage-guided feedback plan, whose corpus
// starts from the invalid-dense subset before mutating.
func BoundaryPicks(suite []Matrix) []Pick {
	var picks []Pick
	for fn, m := range suite {
		seen := map[int64]bool{}
		emit := func(tuple []int) {
			r := m.rankOf(tuple)
			if !seen[r] {
				seen[r] = true
				picks = append(picks, Pick{Fn: fn, Rank: r})
			}
		}
		base := make([]int, len(m.Rows))
		for p, row := range m.Rows {
			for v, val := range row {
				if val.Validity == dict.Valid {
					base[p] = v
					break
				}
			}
		}
		emit(base)
		allInvalid, complete := make([]int, len(m.Rows)), len(m.Rows) > 0
		copy(allInvalid, base)
		for p, row := range m.Rows {
			found := false
			for v, val := range row {
				if val.Validity == dict.Invalid {
					allInvalid[p], found = v, true
					break
				}
			}
			complete = complete && found
		}
		if complete {
			emit(allInvalid)
		}
		for p, row := range m.Rows {
			for v, val := range row {
				if val.Validity == dict.Valid {
					continue
				}
				tuple := make([]int, len(base))
				copy(tuple, base)
				tuple[p] = v
				emit(tuple)
			}
		}
	}
	return picks
}

// --- coverage metrics --------------------------------------------------

// PlanStats quantifies a plan against the exhaustive Eq. 1 campaign: test
// count, value-pair coverage (every pair of dictionary values across
// every parameter pair of every hypercall) and the reduction factor.
type PlanStats struct {
	Strategy string
	// Tests is the plan's dataset count; Exhaustive is Eq. 1 over the
	// whole suite (saturating at MaxInt64).
	Tests      int
	Exhaustive int64
	// PairsCovered / PairsTotal is the 2-way value coverage.
	PairsCovered int
	PairsTotal   int
	// Dynamic marks a plan whose selection is decided during execution
	// (e.g. feedback): its value coverage cannot be measured up front,
	// so the pair counters stay zero.
	Dynamic bool
}

// PairCoverage returns the covered fraction of value pairs (1 when the
// suite has no parameter pairs).
func (st PlanStats) PairCoverage() float64 {
	if st.PairsTotal == 0 {
		return 1
	}
	return float64(st.PairsCovered) / float64(st.PairsTotal)
}

// Reduction returns how many times smaller the plan is than Eq. 1.
func (st PlanStats) Reduction() float64 {
	if st.Tests == 0 {
		return 0
	}
	return float64(st.Exhaustive) / float64(st.Tests)
}

func (st PlanStats) String() string {
	scale := fmt.Sprintf("%.1fx fewer than the %d of Eq. 1", st.Reduction(), st.Exhaustive)
	if int64(st.Tests) > st.Exhaustive {
		// Extension plans (phantom states × parameter-less calls) grow
		// beyond the Eq. 1 product instead of reducing it.
		scale = fmt.Sprintf("extension beyond the %d of Eq. 1", st.Exhaustive)
	}
	if st.Dynamic {
		return fmt.Sprintf("plan %s: %d tests (%s), selection driven by execution feedback",
			st.Strategy, st.Tests, scale)
	}
	if st.PairsTotal == 0 {
		// No parameter pairs to cover (parameter-less or one-parameter
		// suites): a pair-coverage clause would be noise.
		return fmt.Sprintf("plan %s: %d tests (%s)", st.Strategy, st.Tests, scale)
	}
	return fmt.Sprintf("plan %s: %d tests (%s), value-pair coverage %.1f%% (%d/%d)",
		st.Strategy, st.Tests, scale,
		100*st.PairCoverage(), st.PairsCovered, st.PairsTotal)
}

// Measure reports a plan's coverage statistics. An exhaustive plan is
// measured analytically (it covers every pair by construction, so no walk
// is needed and a huge plan stays lazy); any other plan is walked once,
// at cost proportional to its length — reduced plans by design.
func Measure(p Plan) PlanStats {
	suite := p.Suite()
	st := PlanStats{Strategy: p.Strategy(), Tests: p.Len()}
	if IsDynamic(p) {
		// A dynamic plan's At blocks on execution feedback; walking it
		// here would deadlock. Report the analytic numbers only.
		st.Dynamic = true
		for _, m := range suite {
			c := m.Combinations64()
			if st.Exhaustive > math.MaxInt64-c {
				st.Exhaustive = math.MaxInt64
			} else {
				st.Exhaustive += c
			}
		}
		return st
	}
	if st.Strategy == StrategyExhaustive {
		for _, m := range suite {
			c := m.Combinations64()
			if st.Exhaustive > math.MaxInt64-c {
				st.Exhaustive = math.MaxInt64
			} else {
				st.Exhaustive += c
			}
			for i, row := range m.Rows {
				for j := i + 1; j < len(m.Rows); j++ {
					st.PairsTotal += len(row) * len(m.Rows[j])
				}
			}
		}
		st.PairsCovered = st.PairsTotal
		return st
	}
	// Value-index lookup per row, and the uncovered-pair ledger.
	index := make([]map[string]int, 0)
	rowOf := map[string]int{} // func name -> first row-index slot
	covered := make([]map[[4]int]bool, len(suite))
	for fi, m := range suite {
		c := m.Combinations64()
		if st.Exhaustive > math.MaxInt64-c {
			st.Exhaustive = math.MaxInt64
		} else {
			st.Exhaustive += c
		}
		rowOf[m.Func.Name] = len(index)
		for i, row := range m.Rows {
			lookup := make(map[string]int, len(row))
			for v, val := range row {
				lookup[val.Raw+"\x00"+val.Desc] = v
			}
			index = append(index, lookup)
			for j := i + 1; j < len(m.Rows); j++ {
				st.PairsTotal += len(row) * len(m.Rows[j])
			}
		}
		covered[fi] = map[[4]int]bool{}
	}
	fnOf := map[string]int{}
	for fi, m := range suite {
		fnOf[m.Func.Name] = fi
	}
	for _, ds := range All(p) {
		fi, ok := fnOf[ds.Func.Name]
		if !ok {
			continue
		}
		base := rowOf[ds.Func.Name]
		vidx := make([]int, len(ds.Values))
		for i, v := range ds.Values {
			vidx[i] = index[base+i][v.Raw+"\x00"+v.Desc]
		}
		for i := 0; i < len(vidx); i++ {
			for j := i + 1; j < len(vidx); j++ {
				key := [4]int{i, j, vidx[i], vidx[j]}
				if !covered[fi][key] {
					covered[fi][key] = true
					st.PairsCovered++
				}
			}
		}
	}
	return st
}
