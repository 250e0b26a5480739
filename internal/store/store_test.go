package store

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
)

// stores builds one instance of every implementation, rooted so FS names
// stay inside the test's temp directory.
func stores(t *testing.T) map[string]struct {
	s    Store
	name func(string) string
} {
	t.Helper()
	dir := t.TempDir()
	return map[string]struct {
		s    Store
		name func(string) string
	}{
		"fs":  {Local(), func(n string) string { return filepath.Join(dir, n) }},
		"mem": {NewMem(), func(n string) string { return n }},
	}
}

func writeAll(t *testing.T, w io.WriteCloser, data string) {
	t.Helper()
	if _, err := w.Write([]byte(data)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for impl, st := range stores(t) {
		t.Run(impl, func(t *testing.T) {
			name := st.name("ckpt/checkpoint.jsonl")
			if _, err := st.s.ReadCheckpoint(name); !errors.Is(err, ErrNotExist) {
				t.Fatalf("missing checkpoint: got %v, want ErrNotExist", err)
			}
			w, err := st.s.CreateCheckpoint(name)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			writeAll(t, w, "header\n")
			w, err = st.s.AppendCheckpoint(name)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			writeAll(t, w, "mark1\nmark2\n")
			data, err := st.s.ReadCheckpoint(name)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got, want := string(data), "header\nmark1\nmark2\n"; got != want {
				t.Fatalf("contents %q, want %q", got, want)
			}
			// Create truncates: a fresh campaign's header replaces the old checkpoint.
			w, err = st.s.CreateCheckpoint(name)
			if err != nil {
				t.Fatalf("re-create: %v", err)
			}
			writeAll(t, w, "header2\n")
			data, _ = st.s.ReadCheckpoint(name)
			if got, want := string(data), "header2\n"; got != want {
				t.Fatalf("after re-create %q, want %q", got, want)
			}
		})
	}
}

func TestLogAppendListRemove(t *testing.T) {
	for impl, st := range stores(t) {
		t.Run(impl, func(t *testing.T) {
			for _, n := range []string{"d/shard-000.jsonl", "d/shard-001.jsonl"} {
				w, err := st.s.AppendLog(st.name(n), false)
				if err != nil {
					t.Fatalf("append %s: %v", n, err)
				}
				writeAll(t, w, "{}\n")
			}
			names, err := st.s.ListLogs(st.name("d/shard-*.jsonl"))
			if err != nil {
				t.Fatalf("list: %v", err)
			}
			if len(names) != 2 {
				t.Fatalf("list: got %v, want 2 shards", names)
			}
			if err := st.s.RemoveLog(names[0]); err != nil {
				t.Fatalf("remove: %v", err)
			}
			if err := st.s.RemoveLog(names[0]); err != nil {
				t.Fatalf("remove absent: %v", err)
			}
			names, _ = st.s.ListLogs(st.name("d/shard-*.jsonl"))
			if len(names) != 1 {
				t.Fatalf("after remove: got %v, want 1 shard", names)
			}
		})
	}
}

func TestLogTrimTornTail(t *testing.T) {
	for impl, st := range stores(t) {
		t.Run(impl, func(t *testing.T) {
			name := st.name("shard-000.jsonl")
			w, err := st.s.AppendLog(name, false)
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			writeAll(t, w, "{\"seq\":0}\n{\"seq\":1}\n{\"se") // torn tail
			w, err = st.s.AppendLog(name, true)
			if err != nil {
				t.Fatalf("append with trim: %v", err)
			}
			writeAll(t, w, "{\"seq\":2}\n")
			r, err := st.s.OpenLog(name)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			data, _ := io.ReadAll(r)
			r.Close()
			if got, want := string(data), "{\"seq\":0}\n{\"seq\":1}\n{\"seq\":2}\n"; got != want {
				t.Fatalf("contents %q, want %q", got, want)
			}
		})
	}
}

// TestCorpusRoundTrip: the feedback corpus file goes through the FS
// store's log operations (corpus.Store.AttachFile), so only the fs case
// exists: the corpus always opens on the local disk. A missing corpus
// reads as ErrNotExist, the first append creates its directory, and a
// later campaign's append keeps the earlier lines.
func TestCorpusRoundTrip(t *testing.T) {
	t.Run("fs", func(t *testing.T) {
		s := Local()
		name := filepath.Join(t.TempDir(), "corpus", "corpus.jsonl")
		if _, err := s.OpenLog(name); !errors.Is(err, ErrNotExist) {
			t.Fatalf("missing corpus: got %v, want ErrNotExist", err)
		}
		w, err := s.AppendLog(name, false)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		writeAll(t, w, "{\"run\":\"a\"}\n")
		w, err = s.AppendLog(name, false)
		if err != nil {
			t.Fatalf("re-append: %v", err)
		}
		writeAll(t, w, "{\"func\":\"f\"}\n")
		r, err := s.OpenLog(name)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		data, _ := io.ReadAll(r)
		r.Close()
		if got, want := string(data), "{\"run\":\"a\"}\n{\"func\":\"f\"}\n"; got != want {
			t.Fatalf("contents %q, want %q", got, want)
		}
	})
}
