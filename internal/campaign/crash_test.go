package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"xmrobust/internal/store"
)

// tear says what a crashing Write leaves in the store.
type tear int

const (
	tearNothing   tear = iota // the Write fails with nothing written
	tearFirstByte             // only the first byte lands
	tearNewline               // all but the last byte (a record's newline) lands
)

func (t tear) String() string {
	return [...]string{"nothing-written", "first-byte", "all-but-newline"}[t]
}

var errCrashed = errors.New("crash store: the process is dead")

// crashStore is a store.Store over a store.Mem that dies at its n-th
// mutating operation, as a process killed at that instant would. The
// mutating operations are CreateCheckpoint, RemoveLog, AppendLog and a
// Write on any writer the store handed out. The n-th fails having done
// nothing, except that a Write may be torn instead (see tear). Every
// later operation, reads included, fails. Operations are numbered in the
// order they start: two workers' shard writes race for a number, and
// either order is one the engine must survive. The Mem keeps what the
// process left on disk, for a resume to read.
type crashStore struct {
	mem  *store.Mem
	n    int64
	tear tear
	ops  atomic.Int64
	// header reports that a checkpoint Write completed before the crash.
	header atomic.Bool
}

// op numbers the next mutating operation. It fails once the store is
// dead; crash reports that this operation is the one that kills it.
func (s *crashStore) op() (crash bool, err error) {
	switch i := s.ops.Add(1); {
	case i < s.n:
		return false, nil
	case i == s.n:
		return true, errCrashed
	default:
		return false, errCrashed
	}
}

// crashed reports whether the store has died.
func (s *crashStore) crashed() bool { return s.ops.Load() >= s.n }

func (s *crashStore) alive() error {
	if s.crashed() {
		return errCrashed
	}
	return nil
}

func (s *crashStore) ReadCheckpoint(name string) ([]byte, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.mem.ReadCheckpoint(name)
}

func (s *crashStore) CreateCheckpoint(name string) (io.WriteCloser, error) {
	if _, err := s.op(); err != nil {
		return nil, err
	}
	w, err := s.mem.CreateCheckpoint(name)
	return crashWriter{w, s, true}, err
}

func (s *crashStore) AppendCheckpoint(name string) (io.WriteCloser, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	w, err := s.mem.AppendCheckpoint(name)
	return crashWriter{w, s, true}, err
}

func (s *crashStore) ListLogs(pattern string) ([]string, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.mem.ListLogs(pattern)
}

func (s *crashStore) OpenLog(name string) (io.ReadCloser, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.mem.OpenLog(name)
}

func (s *crashStore) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	if _, err := s.op(); err != nil {
		return nil, err
	}
	w, err := s.mem.AppendLog(name, trimTorn)
	return crashWriter{w, s, false}, err
}

func (s *crashStore) RemoveLog(name string) error {
	if _, err := s.op(); err != nil {
		return err
	}
	return s.mem.RemoveLog(name)
}

type crashWriter struct {
	w    io.WriteCloser
	s    *crashStore
	ckpt bool
}

func (w crashWriter) Write(p []byte) (int, error) {
	crash, err := w.s.op()
	if err == nil {
		n, err := w.w.Write(p)
		if w.ckpt && err == nil {
			w.s.header.Store(true)
		}
		return n, err
	}
	if !crash {
		return 0, err
	}
	keep := 0
	switch w.s.tear {
	case tearFirstByte:
		keep = min(1, len(p))
	case tearNewline:
		keep = max(len(p)-1, 0)
	}
	w.w.Write(p[:keep]) // a Mem write cannot fail
	return keep, err
}

func (w crashWriter) Close() error {
	if err := w.s.alive(); err != nil {
		return err
	}
	return w.w.Close()
}

// TestCrashAtEveryWrite explores the crash states of a checkpointed
// 2-worker campaign: it kills the campaign at its n-th store operation,
// for every n until a run finishes, under each tear, and resumes on what
// the store kept. The merged log must be the uninterrupted run's bytes.
// A resume may refuse the checkpoint by name instead, but only when the
// crash came at or before the checkpoint header's write. In the
// used-directory mode the directory first holds another campaign's
// checkpoint and three shards, as after a re-run of xmfuzz -stream DIR
// with another plan: none of its records may reach the merged log.
func TestCrashAtEveryWrite(t *testing.T) {
	plan, opts, err := BuildPlan(Options{Plan: "rand:20", Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	other, otherOpts, err := BuildPlan(Options{Plan: "rand:25", Seed: 2, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	const dir, ckpt = "run", "run/checkpoint.jsonl"
	ref := store.NewMem()
	if _, err := StreamPlan(plan, EngineOptions{Options: opts, ShardDir: dir, CheckpointPath: ckpt, Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	want := mergeDir(t, ref, dir)
	if hdr, err := ref.ReadCheckpoint(ckpt); err != nil || bytes.IndexByte(hdr, '\n') != len(hdr)-1 {
		t.Fatalf("a finished campaign's checkpoint is %q (%v), want its header line alone", hdr, err)
	}

	for _, used := range []bool{false, true} {
		for _, tr := range []tear{tearNothing, tearFirstByte, tearNewline} {
			name := "fresh/" + tr.String()
			if used {
				name = "used/" + tr.String()
			}
			t.Run(name, func(t *testing.T) {
				points := 0
				for n := int64(1); ; n++ {
					mem := store.NewMem()
					if used {
						if _, err := StreamPlan(other, EngineOptions{Options: otherOpts, ShardDir: dir, CheckpointPath: ckpt, Store: mem}, nil); err != nil {
							t.Fatal(err)
						}
					}
					cs := &crashStore{mem: mem, n: n, tear: tr}
					eo := EngineOptions{Options: opts, ShardDir: dir, CheckpointPath: ckpt, Store: cs}
					_, err := StreamPlan(plan, eo, nil)
					if !cs.crashed() {
						// n is past the campaign's last store operation.
						if err != nil {
							t.Fatalf("run without a crash: %v", err)
						}
						if got := mergeDir(t, mem, dir); !bytes.Equal(got, want) {
							t.Fatalf("run without a crash merged a different log:\n%s", diffLines(want, got))
						}
						break
					}
					points++
					if err == nil {
						t.Fatalf("crash at operation %d: the campaign reported no error", n)
					}
					eo.Store, eo.Resume = mem, true
					if _, err := StreamPlan(plan, eo, nil); err != nil {
						if cs.header.Load() || !strings.Contains(err.Error(), "checkpoint") {
							t.Fatalf("crash at operation %d: resume failed: %v", n, err)
						}
						continue
					}
					if got := mergeDir(t, mem, dir); !bytes.Equal(got, want) {
						t.Fatalf("crash at operation %d: resume merged a different log:\n%s", n, diffLines(want, got))
					}
				}
				if points < plan.Len() {
					t.Fatalf("only %d crash points for %d tests: the sweep missed the shard writes", points, plan.Len())
				}
				t.Logf("%d crash points", points)
			})
		}
	}
}

// readLog returns the contents of one log in st.
func readLog(t *testing.T, st store.LogStore, name string) []byte {
	t.Helper()
	f, err := st.OpenLog(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diffLines names the first line where two logs part.
func diffLines(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b []byte
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("line %d:\nwant %.120s\ngot  %.120s", i+1, a, b)
		}
	}
	return "(equal)"
}

// TestFailedShardWriteLeavesPositionPending: a test whose shard record
// did not reach the store whole, because the write failed or stopped
// short of the newline, has no complete record, so a resume runs it
// again. The campaign reports the write error; the resume skips exactly
// the complete records and merges to the bytes of an uninterrupted run.
func TestFailedShardWriteLeavesPositionPending(t *testing.T) {
	datasets := mixedSuite(t)
	opts := Options{Workers: 1}
	ref := store.NewMem()
	if _, err := Stream(datasets, EngineOptions{Options: opts, ShardDir: "ref", Store: ref}, nil); err != nil {
		t.Fatal(err)
	}
	want := mergeDir(t, ref, "ref")

	for _, tr := range []tear{tearNothing, tearNewline} {
		t.Run(tr.String(), func(t *testing.T) {
			mem := store.NewMem()
			// The sixth operation is a shard record's write: the first
			// three create the checkpoint, write its header and open the
			// shard.
			eo := EngineOptions{Options: opts, ShardDir: "run", CheckpointPath: "run/ckpt.jsonl",
				Store: &crashStore{mem: mem, n: 6, tear: tr}}
			if _, err := Stream(datasets, eo, nil); err == nil || !strings.Contains(err.Error(), "campaign: shard record") {
				t.Fatalf("campaign with a failed shard write returned %v, want the shard record error", err)
			}
			complete := bytes.Count(readLog(t, mem, shardPath("run", 0)), []byte("\n"))
			if complete == 0 {
				t.Fatal("no record reached the shard before the failed write")
			}

			eo.Store, eo.Resume = mem, true
			stats, err := Stream(datasets, eo, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Skipped != complete || stats.Executed != len(datasets)-complete {
				t.Fatalf("resume skipped %d and executed %d; the shard held %d complete records of %d",
					stats.Skipped, stats.Executed, complete, len(datasets))
			}
			if got := mergeDir(t, mem, "run"); !bytes.Equal(got, want) {
				t.Fatalf("resumed log differs from an uninterrupted run:\n%s", diffLines(want, got))
			}
		})
	}
}
