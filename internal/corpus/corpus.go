// Package corpus implements the coverage-deduplicated corpus store and
// the coverage-guided feedback plan — the closed loop the static test
// plans lack. Datasets whose execution lights up kernel edges no earlier
// dataset did are admitted to the corpus; dictionary-aware mutators breed
// new datasets from admitted parents under a deterministic
// splitmix64-seeded schedule, so a seeded feedback campaign is
// byte-reproducible. The corpus persists to a JSON Lines file: a later
// campaign loads it and starts mutating from the previously productive
// datasets instead of from scratch.
//
// The campaign layer's plan catalogue builds the feedback plan for the
// spec "feedback:N"; the campaign engine recognises it through the
// FeedbackSource interface and forwards every result's coverage map back
// into the loop.
package corpus

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"xmrobust/internal/cover"
	"xmrobust/internal/store"
	"xmrobust/internal/testgen"
)

// Entry is one admitted corpus member: a dataset identified by its value
// tuple, with the coverage evidence that earned its admission.
type Entry struct {
	// Fn is the function's index in the plan suite; Tuple holds one
	// value index per parameter (the mutators' substrate).
	Fn    int
	Tuple []int
	// NewEdges is how many kernel edges were first seen on this entry's
	// run; Sig is that run's full coverage signature.
	NewEdges int
	Sig      uint64
}

// entryKey dedupes entries by dataset identity.
type entryKey struct {
	fn   int
	rank int64
}

// Store is the coverage-deduplicated corpus: the global coverage
// frontier plus every dataset that extended it. With a file attached,
// admissions append to the JSON Lines corpus file as they happen, so an
// interrupted campaign's corpus survives.
type Store struct {
	suite   []testgen.Matrix
	global  cover.Map
	entries []Entry
	seen    map[entryKey]bool
	// persisted keys are already on disk; re-admissions (a resumed run
	// deterministically re-deriving its own earlier admissions) must
	// not duplicate them in the file.
	persisted map[entryKey]bool
	loaded    int

	file io.WriteCloser
	bw   *bufio.Writer
}

// NewStore returns an empty corpus over the suite.
func NewStore(suite []testgen.Matrix) *Store {
	return &Store{suite: suite, seen: map[entryKey]bool{}, persisted: map[entryKey]bool{}}
}

// Admit merges a run's coverage into the frontier. If the run found new
// edges and the dataset is not already a member, it joins the corpus
// (and the corpus file, when attached). Admit tolerates a nil map — a
// run that produced no coverage cannot be productive.
func (s *Store) Admit(fn int, tuple []int, cov *cover.Map) (newEdges int, admitted bool) {
	if cov == nil {
		return 0, false
	}
	newEdges = s.global.Merge(cov)
	if newEdges == 0 {
		return 0, false
	}
	key := entryKey{fn: fn, rank: s.suite[fn].RankOf(tuple)}
	if s.seen[key] {
		return newEdges, false
	}
	s.seen[key] = true
	e := Entry{Fn: fn, Tuple: append([]int(nil), tuple...), NewEdges: newEdges, Sig: cov.Signature()}
	s.entries = append(s.entries, e)
	s.persist(e, key)
	return newEdges, true
}

// Entries returns the corpus members in admission order (loaded entries
// first). The slice is shared; callers must not mutate it.
func (s *Store) Entries() []Entry { return s.entries }

// Len returns the corpus size.
func (s *Store) Len() int { return len(s.entries) }

// Loaded returns how many members came from the corpus file.
func (s *Store) Loaded() int { return s.loaded }

// Edges returns the size of the coverage frontier.
func (s *Store) Edges() int { return s.global.Count() }

// Coverage returns the global coverage frontier (shared, do not mutate).
func (s *Store) Coverage() *cover.Map { return &s.global }

// fileEntry is the JSON Lines form of one corpus line: either an
// admitted member, or a run marker (Run set, everything else empty)
// separating campaigns. The function travels by name so a corpus file
// survives spec reordering; tuples are validated against the current
// dictionary on load.
type fileEntry struct {
	// Run marks the start of the named campaign's admissions. On load,
	// entries following a marker that matches the attaching campaign's
	// own id are NOT used as mutation parents: they are that campaign's
	// own earlier admissions, which a checkpoint resume re-derives
	// deterministically — pre-loading them would change the breeding
	// schedule and break exact replay.
	Run      string `json:"run,omitempty"`
	Func     string `json:"func,omitempty"`
	Tuple    []int  `json:"tuple,omitempty"`
	NewEdges int    `json:"new_edges,omitempty"`
	Sig      string `json:"sig,omitempty"`
}

// AttachFile loads the corpus file at path (if it exists) and opens it
// for appending admissions under the given campaign id (the plan
// fingerprint). Members admitted by other campaigns join the corpus as
// mutation parents; members this campaign admitted in an interrupted
// earlier attempt are only remembered as already-persisted, so the
// resumed run re-derives them without duplicating file lines. Entries
// whose function or tuple no longer fits the current suite are skipped
// (the file may predate a dictionary change). The global frontier is
// NOT rebuilt from the file — coverage is a property of execution, and
// the loop re-earns it by running mutations of the loaded parents. The
// file always opens through the local filesystem store's log operations,
// whatever store the campaign's checkpoint and shards use; missing
// parent directories are created.
func (s *Store) AttachFile(path, runID string) error {
	fnOf := map[string]int{}
	for i, m := range s.suite {
		fnOf[m.Func.Name] = i
	}
	local := store.Local()
	r, err := local.OpenLog(path)
	switch {
	case errors.Is(err, store.ErrNotExist):
		// A fresh corpus.
	case err != nil:
		return fmt.Errorf("corpus: %w", err)
	default:
		defer r.Close()
		ownRun := false
		dec := json.NewDecoder(r)
		for dec.More() {
			var fe fileEntry
			if err := dec.Decode(&fe); err != nil {
				// A torn trailing line from an interrupted run: the
				// remaining entries are unrecoverable but the corpus is
				// still usable.
				break
			}
			if fe.Run != "" {
				ownRun = fe.Run == runID
				continue
			}
			fn, ok := fnOf[fe.Func]
			if !ok || !tupleFits(s.suite[fn], fe.Tuple) {
				continue
			}
			key := entryKey{fn: fn, rank: s.suite[fn].RankOf(fe.Tuple)}
			if s.persisted[key] {
				continue
			}
			s.persisted[key] = true
			if ownRun {
				continue
			}
			s.seen[key] = true
			var sig uint64
			fmt.Sscanf(fe.Sig, "%016x", &sig)
			s.entries = append(s.entries, Entry{Fn: fn, Tuple: fe.Tuple, NewEdges: fe.NewEdges, Sig: sig})
			s.loaded++
		}
	}
	f, err := local.AppendLog(path, false)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	s.file = f
	s.bw = bufio.NewWriter(f)
	line, _ := json.Marshal(fileEntry{Run: runID})
	s.bw.Write(append(line, '\n'))
	return s.bw.Flush()
}

// persist appends one admission to the corpus file, flushed per entry so
// an interruption loses at most the line being written (which the loader
// skips as a torn tail). Admissions already on disk — a resumed run
// re-deriving its earlier attempt's corpus — are not duplicated.
func (s *Store) persist(e Entry, key entryKey) {
	if s.file == nil || s.persisted[key] {
		return
	}
	s.persisted[key] = true
	line, _ := json.Marshal(fileEntry{
		Func:     s.suite[e.Fn].Func.Name,
		Tuple:    e.Tuple,
		NewEdges: e.NewEdges,
		Sig:      fmt.Sprintf("%016x", e.Sig),
	})
	s.bw.Write(append(line, '\n'))
	s.bw.Flush()
}

// Close releases the corpus file handle (no-op without one).
func (s *Store) Close() error {
	if s.file == nil {
		return nil
	}
	s.bw.Flush()
	err := s.file.Close()
	s.file, s.bw = nil, nil
	return err
}

// tupleFits validates a tuple against a matrix's shape.
func tupleFits(m testgen.Matrix, tuple []int) bool {
	if len(tuple) != len(m.Rows) {
		return false
	}
	for i, v := range tuple {
		if v < 0 || v >= len(m.Rows[i]) {
			return false
		}
	}
	return true
}
