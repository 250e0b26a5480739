package corpus

import (
	"fmt"
	"sync"

	"xmrobust/internal/cover"
	"xmrobust/internal/testgen"
)

// Stagnation is how many consecutive no-new-coverage results switch the
// scheduler from corpus mutation to uniform exploration of the Eq. 1
// space. The counter resets the moment any result finds a new edge, so a
// campaign alternates between exploiting productive parents and probing
// fresh territory.
const Stagnation = 32

// StrategyFeedback is the plan-spec name ("feedback:N").
const StrategyFeedback = "feedback"

// FeedbackPlan is the coverage-guided dynamic plan: dataset i beyond the
// seed schedule is bred from the corpus state after the coverage of all
// datasets < i has been folded in. At blocks until that feedback arrives
// (the campaign engine forwards it through the FeedbackSource interface),
// which serialises the mutation region — the price of a deterministic,
// byte-reproducible closed loop.
//
// The seed schedule is the boundary strategy's invalid-dense selection,
// capped at half the budget so at least half the campaign mutates.
// Checkpointed feedback campaigns resume through the engine replaying
// completed tests' coverage from the shard records; the corpus file (see
// UseCorpusFile) additionally carries admitted datasets across campaigns
// as mutation parents.
type FeedbackPlan struct {
	mu   sync.Mutex
	cond *sync.Cond

	space *testgen.Space
	suite []testgen.Matrix

	n        int
	strategy string
	fp       string

	seeds []testgen.Pick

	store *Store
	rng   testgen.SplitMix64

	// Emission state: what each generated position holds.
	gen     map[int]testgen.Dataset
	tuples  map[int][]int
	fns     map[int]int
	emitted map[entryKey]bool

	// Feedback state: coverage is applied strictly in position order so
	// the corpus evolution (and hence every bred dataset) is a pure
	// function of the seed and the executed datasets.
	pending  map[int]*cover.Map
	applied  int
	stagnant int
	history  []int // frontier size after each applied test
}

// NewFeedbackPlan builds a feedback plan of n tests over the space. Its
// exploration draws address the whole Eq. 1 space, so a space whose size
// overflows int64 is refused.
func NewFeedbackPlan(space *testgen.Space, n int, seed int64) (*FeedbackPlan, error) {
	total, ok := space.Total()
	if !ok {
		return nil, fmt.Errorf("corpus: plan %q: campaign size overflows int64", StrategyFeedback)
	}
	if total <= 0 {
		return nil, fmt.Errorf("corpus: plan %q needs a non-empty suite", StrategyFeedback)
	}
	suite := space.Matrices()
	strategy := fmt.Sprintf("%s:%d", StrategyFeedback, n)
	p := &FeedbackPlan{
		space:    space,
		suite:    suite,
		n:        n,
		strategy: strategy,
		fp:       space.Fingerprint(strategy, true, seed),
		store:    NewStore(suite),
		rng:      testgen.NewSplitMix64(seed),
		gen:      map[int]testgen.Dataset{},
		tuples:   map[int][]int{},
		fns:      map[int]int{},
		emitted:  map[entryKey]bool{},
		pending:  map[int]*cover.Map{},
	}
	p.cond = sync.NewCond(&p.mu)
	// Interleave the boundary picks round-robin across functions before
	// capping: a truncated in-order schedule would spend the whole seed
	// budget on the first few hypercalls and leave the rest of the ABI
	// to stagnation-driven exploration.
	p.seeds = interleaveByFn(testgen.BoundaryPicks(suite), len(suite))
	if limit := (n + 1) / 2; len(p.seeds) > limit {
		p.seeds = p.seeds[:limit]
	}
	return p, nil
}

// UseCorpusFile attaches a JSON Lines corpus file: datasets admitted by
// other campaigns load as mutation parents and new admissions append as
// they happen, so the corpus survives interruptions and compounds
// across campaigns. The file is partitioned by run markers carrying the
// plan fingerprint, so a checkpoint resume recognises (and re-derives,
// rather than re-loads) its own earlier admissions — see Feedback.
func (p *FeedbackPlan) UseCorpusFile(path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.AttachFile(path, p.fp)
}

// Close releases the corpus file (no-op without one).
func (p *FeedbackPlan) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Close()
}

// Strategy returns the canonical plan spec ("feedback:N").
func (p *FeedbackPlan) Strategy() string { return p.strategy }

// Len returns the campaign budget N.
func (p *FeedbackPlan) Len() int { return p.n }

// Suite returns the per-function value matrices.
func (p *FeedbackPlan) Suite() []testgen.Matrix { return p.suite }

// Fingerprint identifies the plan: strategy, seed and suite content.
// Unlike static plans the emitted datasets are not a function of the
// fingerprint alone — they also depend on execution coverage — but for a
// deterministic kernel that coverage is itself determined by the same
// identity, which is what makes checkpoint resume sound.
func (p *FeedbackPlan) Fingerprint() string { return p.fp }

// Dynamic marks the plan as execution-driven (see testgen.IsDynamic).
func (p *FeedbackPlan) Dynamic() bool { return true }

// At returns dataset i. Seed positions are available immediately; bred
// positions block until the coverage of every earlier dataset has been
// fed back.
func (p *FeedbackPlan) At(i int) testgen.Dataset {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ds, ok := p.gen[i]; ok {
		return ds
	}
	if i < len(p.seeds) {
		pk := p.seeds[i]
		return p.emit(i, pk.Fn, p.suite[pk.Fn].TupleAt(pk.Rank))
	}
	for p.applied < i {
		p.cond.Wait()
	}
	fn, tuple := p.breed()
	return p.emit(i, fn, tuple)
}

// emit records position i's dataset (caller holds the lock).
func (p *FeedbackPlan) emit(i, fn int, tuple []int) testgen.Dataset {
	m := p.suite[fn]
	rank := m.RankOf(tuple)
	ds := m.DatasetAt(rank)
	p.gen[i] = ds
	p.tuples[i] = tuple
	p.fns[i] = fn
	p.emitted[entryKey{fn: fn, rank: rank}] = true
	return ds
}

// interleaveByFn reorders picks round-robin by function, preserving each
// function's internal order.
func interleaveByFn(picks []testgen.Pick, numFn int) []testgen.Pick {
	byFn := make([][]testgen.Pick, numFn)
	for _, pk := range picks {
		byFn[pk.Fn] = append(byFn[pk.Fn], pk)
	}
	out := make([]testgen.Pick, 0, len(picks))
	for round := 0; len(out) < len(picks); round++ {
		for _, fps := range byFn {
			if round < len(fps) {
				out = append(out, fps[round])
			}
		}
	}
	return out
}

// explore draws one dataset uniformly from the exhaustive space (caller
// holds the lock).
func (p *FeedbackPlan) explore() (int, []int) {
	total, _ := p.space.Total() // fits int64: NewFeedbackPlan refused an overflowing space
	fn, rank := p.space.Locate(p.rng.Int63n(total))
	return fn, p.suite[fn].TupleAt(rank)
}

// breed derives the next dataset from the corpus state (caller holds the
// lock): an ε-greedy schedule that mostly mutates a corpus parent but
// spends every fourth draw exploring the exhaustive space uniformly, so
// regions no seed reached still get probed. When the corpus is empty or
// Stagnation consecutive results found nothing new, every draw explores.
// Repeated datasets are skipped for a bounded number of attempts —
// re-running a dataset cannot light new edges on a deterministic kernel.
func (p *FeedbackPlan) breed() (int, []int) {
	entries := p.store.Entries()
	for attempt := 0; attempt < 8; attempt++ {
		var fn int
		var tuple []int
		switch {
		case len(entries) == 0 || p.stagnant >= Stagnation || p.rng.Intn(4) == 0:
			fn, tuple = p.explore()
		default:
			parent := entries[p.rng.Intn(len(entries))]
			fn = parent.Fn
			tuple = mutateTuple(&p.rng, p.suite[fn], parent.Tuple, p.mateFor(entries, fn))
			if tuple == nil { // parameter-less parent: nothing to mutate
				fn, tuple = p.explore()
			}
		}
		if !p.emitted[entryKey{fn: fn, rank: p.suite[fn].RankOf(tuple)}] {
			return fn, tuple
		}
	}
	return p.explore()
}

// mateFor picks a second parent of the same function for the splice
// mutator, scanning from a random offset so mates vary (one rng draw,
// deterministic). Returns nil when the corpus has no other candidate.
func (p *FeedbackPlan) mateFor(entries []Entry, fn int) []int {
	if len(entries) < 2 {
		return nil
	}
	off := p.rng.Intn(len(entries))
	for k := 0; k < len(entries); k++ {
		if e := entries[(off+k)%len(entries)]; e.Fn == fn {
			return e.Tuple
		}
	}
	return nil
}

// Feedback folds one executed test's coverage into the loop. Arrival
// order is free — the campaign engine delivers in completion order — but
// application happens strictly in position order, buffering gaps, so the
// corpus evolution is reproducible. A nil map (a test that produced no
// coverage, e.g. a harness error) counts as an unproductive round.
// Feedback satisfies the campaign engine's FeedbackSource interface.
//
// On checkpoint resume the engine replays the completed tests' coverage
// from the shard records before dispatching anything. Positions this
// plan instance never emitted are regenerated on the spot as their
// feedback is applied: breeding is a pure function of the seed and the
// feedback prefix, so the regeneration consumes the rng exactly as the
// interrupted run did and the plan state (rng position, emitted set,
// corpus) lands where the original left off — the rng-state checkpoint
// is recomputed rather than persisted.
func (p *FeedbackPlan) Feedback(pos int, cov *cover.Map) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pos < p.applied || pos >= p.n {
		return
	}
	if _, dup := p.pending[pos]; dup {
		return
	}
	if cov == nil {
		cov = &cover.Map{}
	}
	p.pending[pos] = cov
	for {
		c, ok := p.pending[p.applied]
		if !ok {
			break
		}
		delete(p.pending, p.applied)
		i := p.applied
		if _, emitted := p.gen[i]; !emitted {
			// Replay of a completed test from an earlier run: re-derive
			// its dataset through the same deterministic schedule.
			if i < len(p.seeds) {
				pk := p.seeds[i]
				p.emit(i, pk.Fn, p.suite[pk.Fn].TupleAt(pk.Rank))
			} else {
				fn, tuple := p.breed()
				p.emit(i, fn, tuple)
			}
		}
		p.apply(i, c)
		p.applied++
	}
	p.cond.Broadcast()
}

// apply admits one result in position order (caller holds the lock).
func (p *FeedbackPlan) apply(pos int, cov *cover.Map) {
	newEdges, _ := p.store.Admit(p.fns[pos], p.tuples[pos], cov)
	if newEdges > 0 {
		p.stagnant = 0
	} else {
		p.stagnant++
	}
	p.history = append(p.history, p.store.Edges())
}

// Stats is the feedback loop's own accounting, rendered by the report
// layer's coverage section.
type Stats struct {
	// Edges is the coverage frontier size; Signature its stable hash.
	Edges     int
	Signature uint64
	// Corpus members (Loaded of them from the corpus file), the seed
	// schedule length, and how many results have been folded in.
	Corpus   int
	Loaded   int
	Seeds    int
	Executed int
	// History is the frontier size after each applied test — the
	// edges-discovered-over-time curve.
	History []int
}

// Stats snapshots the loop.
func (p *FeedbackPlan) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Edges:     p.store.Edges(),
		Signature: p.store.Coverage().Signature(),
		Corpus:    p.store.Len(),
		Loaded:    p.store.Loaded(),
		Seeds:     len(p.seeds),
		Executed:  p.applied,
		History:   append([]int(nil), p.history...),
	}
}
