package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmrobust/internal/apispec"
	"xmrobust/internal/cover"
	"xmrobust/internal/dict"
	"xmrobust/internal/testgen"
)

// testSpace builds the default spec's Eq. 1 rank space.
func testSpace(t *testing.T) *testgen.Space {
	t.Helper()
	s, err := testgen.NewSpace(apispec.Default(), dict.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testSuite builds the default spec's value matrices.
func testSuite(t *testing.T) []testgen.Matrix { return testSpace(t).Matrices() }

// mapOf builds a coverage map over the given sites.
func mapOf(sites ...uint32) *cover.Map {
	m := &cover.Map{}
	for _, s := range sites {
		m.Hit(s)
	}
	return m
}

func TestStoreAdmission(t *testing.T) {
	suite := testSuite(t)
	s := NewStore(suite)
	tuple := make([]int, len(suite[0].Rows))

	newEdges, admitted := s.Admit(0, tuple, mapOf(1, 2, 3))
	if newEdges != 3 || !admitted {
		t.Fatalf("first Admit = (%d, %v), want (3, true)", newEdges, admitted)
	}
	// Same coverage, different dataset: nothing new, not admitted.
	tuple2 := append([]int(nil), tuple...)
	tuple2[len(tuple2)-1] = 1
	if n, ok := s.Admit(0, tuple2, mapOf(1, 2)); n != 0 || ok {
		t.Fatalf("redundant Admit = (%d, %v), want (0, false)", n, ok)
	}
	// New edge on an already-admitted dataset: frontier grows, no dup.
	if n, ok := s.Admit(0, tuple, mapOf(9)); n != 1 || ok {
		t.Fatalf("dup-dataset Admit = (%d, %v), want (1, false)", n, ok)
	}
	if s.Len() != 1 || s.Edges() != 4 {
		t.Fatalf("store has %d entries / %d edges, want 1 / 4", s.Len(), s.Edges())
	}
	if n, ok := s.Admit(0, tuple2, nil); n != 0 || ok {
		t.Fatalf("nil-coverage Admit = (%d, %v), want (0, false)", n, ok)
	}
}

func TestStorePersistence(t *testing.T) {
	suite := testSuite(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	s := NewStore(suite)
	if err := s.AttachFile(path, "campaign-A"); err != nil {
		t.Fatal(err)
	}
	tupleA := make([]int, len(suite[0].Rows))
	tupleB := make([]int, len(suite[1].Rows))
	if v := len(suite[1].Rows[0]); v > 1 {
		tupleB[0] = 1
	}
	s.Admit(0, tupleA, mapOf(1, 2))
	s.Admit(1, tupleB, mapOf(3))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A different campaign loads both members as parents, without
	// coverage.
	s2 := NewStore(suite)
	if err := s2.AttachFile(path, "campaign-B"); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 || s2.Loaded() != 2 {
		t.Fatalf("reloaded corpus has %d entries (%d loaded), want 2 (2)", s2.Len(), s2.Loaded())
	}
	if s2.Edges() != 0 {
		t.Fatalf("reloaded corpus claims %d edges; coverage must be re-earned", s2.Edges())
	}
	got := s2.Entries()[0]
	if got.Fn != 0 || got.NewEdges != 2 {
		t.Fatalf("entry 0 = %+v, want Fn 0 NewEdges 2", got)
	}
	// Re-admitting a loaded member must not duplicate it in the file.
	s2.Admit(0, tupleA, mapOf(1, 2))
	if s2.Len() != 2 {
		t.Fatalf("re-admission duplicated a loaded entry")
	}
}

// TestAttachFileCreatesParentDirs: the corpus file may name a directory
// that does not exist yet; attaching creates it, and a later attach
// appends after the earlier campaign's lines.
func TestAttachFileCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus", "corpus.jsonl")
	for _, run := range []string{"campaign-A", "campaign-B"} {
		s := NewStore(testSuite(t))
		if err := s.AttachFile(path, run); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), "{\"run\":\"campaign-A\"}\n{\"run\":\"campaign-B\"}\n"; got != want {
		t.Fatalf("corpus file %q, want %q", got, want)
	}
}

func TestStoreResumeSkipsOwnAdmissions(t *testing.T) {
	suite := testSuite(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")

	s := NewStore(suite)
	if err := s.AttachFile(path, "campaign-A"); err != nil {
		t.Fatal(err)
	}
	tuple := make([]int, len(suite[0].Rows))
	s.Admit(0, tuple, mapOf(1, 2))
	s.Close()

	// The same campaign re-attaching (a checkpoint resume) must NOT see
	// its own earlier admissions as parents — it re-derives them — but
	// must remember they are already on disk.
	s2 := NewStore(suite)
	if err := s2.AttachFile(path, "campaign-A"); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.Loaded() != 0 {
		t.Fatalf("resume loaded %d entries (%d loaded), want 0", s2.Len(), s2.Loaded())
	}
	if _, admitted := s2.Admit(0, tuple, mapOf(1, 2)); !admitted {
		t.Fatal("re-derived admission rejected")
	}
	s2.Close()

	// The file must hold the entry exactly once despite two admissions.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fnName := suite[0].Func.Name
	if got := strings.Count(string(data), fnName); got != 1 {
		t.Fatalf("corpus file holds %d copies of the %s entry, want 1:\n%s", got, fnName, data)
	}
	// A different campaign still sees it as one parent.
	s3 := NewStore(suite)
	if err := s3.AttachFile(path, "campaign-B"); err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 1 {
		t.Fatalf("third campaign loaded %d parents, want 1", s3.Len())
	}
}

func TestStoreLoadSkipsTornAndStale(t *testing.T) {
	suite := testSuite(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	content := `{"func":"NO_SUCH_HYPERCALL","tuple":[0]}
{"func":"` + suite[0].Func.Name + `","tuple":[0,0,0,0,0,0,0,0,0,0]}
{"func":"` + suite[0].Func.Name + `","tuple":` + tupleJSON(len(suite[0].Rows)) + `,"new_edges":5,"sig":"00000000000000aa"}
{"func":"` + suite[0].Func.Name + `","tu`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(suite)
	if err := s.AttachFile(path, "campaign-A"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 (unknown func, bad tuple and torn tail skipped)", s.Len())
	}
	if e := s.Entries()[0]; e.NewEdges != 5 || e.Sig != 0xaa {
		t.Fatalf("entry = %+v, want NewEdges 5 Sig 0xaa", e)
	}
}

// tupleJSON renders a zero tuple of length n.
func tupleJSON(n int) string {
	out := "["
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ","
		}
		out += "0"
	}
	return out + "]"
}

func TestMutateTupleStaysInDictionary(t *testing.T) {
	suite := testSuite(t)
	rng := testgen.NewSplitMix64(42)
	for _, m := range suite {
		if len(m.Rows) == 0 {
			continue
		}
		parent := make([]int, len(m.Rows))
		mate := make([]int, len(m.Rows))
		for i, row := range m.Rows {
			mate[i] = len(row) - 1
		}
		for i := 0; i < 200; i++ {
			child := mutateTuple(&rng, m, parent, mate)
			if len(child) != len(m.Rows) {
				t.Fatalf("%s: child has %d params, want %d", m.Func.Name, len(child), len(m.Rows))
			}
			for p, v := range child {
				if v < 0 || v >= len(m.Rows[p]) {
					t.Fatalf("%s: child[%d] = %d outside row of %d", m.Func.Name, p, v, len(m.Rows[p]))
				}
			}
		}
	}
	// Parameter-less functions cannot be mutated.
	if got := mutateTuple(&rng, testgen.Matrix{}, nil, nil); got != nil {
		t.Fatalf("mutateTuple on no params = %v, want nil", got)
	}
}

func TestMutateTupleDeterministic(t *testing.T) {
	suite := testSuite(t)
	m := suite[0]
	parent := make([]int, len(m.Rows))
	a := testgen.NewSplitMix64(7)
	b := testgen.NewSplitMix64(7)
	for i := 0; i < 100; i++ {
		ca := mutateTuple(&a, m, parent, nil)
		cb := mutateTuple(&b, m, parent, nil)
		for p := range ca {
			if ca[p] != cb[p] {
				t.Fatalf("iteration %d: %v vs %v", i, ca, cb)
			}
		}
	}
}
