// Package store is the persistence seam of the campaign stack: the
// checkpoint header and log shards a campaign writes flow through the
// campaign's store instead of direct file I/O. The local filesystem
// implementation (FS) reproduces exactly what the engine did before the
// seam existed; the in-memory implementation (Mem) backs tests and
// embedders that want no disk at all. The seam is what lets shards live
// on different machines: a distributed campaign points the engine at a
// store whose names resolve somewhere else, and resume (a feedback
// plan's coverage replay included) and merge keep working because none
// of them ever knew about *os.File.
//
// The feedback corpus is not part of the seam: its file always opens on
// the local disk, through FS's OpenLog and AppendLog, whatever store the
// campaign uses.
//
// Both interfaces speak names, not paths: a name is an opaque
// string the store resolves (the FS store treats it as a filesystem
// path). Append-oriented writes return an io.WriteCloser; durability
// per write is the implementation's contract (FS hands out unbuffered
// *os.File appends, so each Write is one syscall). A campaign's shards
// are its progress record: a newline-terminated record is a completed
// test.
package store

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotExist is returned (possibly wrapped) when a named object is
// absent. It aliases fs.ErrNotExist so errors.Is works across FS and
// Mem uniformly.
var ErrNotExist = fs.ErrNotExist

// CheckpointStore persists campaign checkpoints: the header line that
// identifies a campaign, written once when it starts.
type CheckpointStore interface {
	// ReadCheckpoint returns the full checkpoint contents, or an error
	// wrapping ErrNotExist when none was ever written.
	ReadCheckpoint(name string) ([]byte, error)
	// CreateCheckpoint truncates (or creates) the checkpoint and returns
	// a writer positioned at its start.
	CreateCheckpoint(name string) (io.WriteCloser, error)
	// AppendCheckpoint opens an existing checkpoint for appending.
	AppendCheckpoint(name string) (io.WriteCloser, error)
}

// LogStore persists campaign log shards: append-only JSON Lines files,
// listed by pattern for the merge and scan paths.
type LogStore interface {
	// ListLogs returns the names matching pattern (path.Match syntax on
	// the last name element), sorted.
	ListLogs(pattern string) ([]string, error)
	// OpenLog opens a shard for reading (ErrNotExist when absent).
	OpenLog(name string) (io.ReadCloser, error)
	// AppendLog opens (creating if necessary) a shard for appending.
	// With trimTorn, the shard is first truncated back to its last
	// newline-terminated record: an interrupted run can leave a partial
	// record at the tail, and appending after the fragment would corrupt
	// the shard mid-file, where readers cannot skip it.
	AppendLog(name string, trimTorn bool) (io.WriteCloser, error)
	// RemoveLog deletes a shard (nil when already absent).
	RemoveLog(name string) error
}

// Store is the full persistence surface a campaign needs.
type Store interface {
	CheckpointStore
	LogStore
}

// --- local filesystem ---------------------------------------------------

// FS is the local-filesystem store: names are ordinary paths, and every
// operation is the direct file I/O the engine performed before the seam
// existed — byte-for-byte the same files in the same places.
type FS struct{}

// Local returns the local-filesystem store.
func Local() FS { return FS{} }

// ReadCheckpoint reads the checkpoint file whole.
func (FS) ReadCheckpoint(name string) ([]byte, error) { return os.ReadFile(name) }

// CreateCheckpoint truncates or creates the checkpoint file, making
// parent directories as needed.
func (FS) CreateCheckpoint(name string) (io.WriteCloser, error) {
	if dir := filepath.Dir(name); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(name)
}

// AppendCheckpoint opens the checkpoint file for appending.
func (FS) AppendCheckpoint(name string) (io.WriteCloser, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

// ListLogs globs the pattern against the filesystem.
func (FS) ListLogs(pattern string) ([]string, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// OpenLog opens a shard file for reading.
func (FS) OpenLog(name string) (io.ReadCloser, error) { return os.Open(name) }

// AppendLog opens a shard file for appending, creating parent
// directories as needed and, with trimTorn, truncating a partial
// trailing record first.
func (FS) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	if dir := filepath.Dir(name); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if trimTorn {
		if err := trimTornTail(name); err != nil {
			return nil, err
		}
	}
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// RemoveLog deletes a shard file (nil when already absent).
func (FS) RemoveLog(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// trimTornTail truncates a file back to its last complete
// (newline-terminated) record before new records are appended.
func trimTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	// Walk back from the end to the last newline.
	const chunk = 4096
	end := st.Size()
	last := []byte{0}
	if _, err := f.ReadAt(last, end-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	keep := int64(0)
	for off := end; off > 0; {
		n := int64(chunk)
		if n > off {
			n = off
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, off-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			keep = off - n + int64(i) + 1
			break
		}
		off -= n
	}
	return f.Truncate(keep)
}

// --- in-memory ----------------------------------------------------------

// Mem is the in-memory store: every object is a byte buffer behind one
// mutex. It backs tests, and campaigns that want the streaming engine's
// semantics (sharded logs, checkpoint resume) without a filesystem.
type Mem struct {
	mu      sync.Mutex
	objects map[string]*memObject
}

type memObject struct {
	mu   sync.Mutex
	data []byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objects: map[string]*memObject{}} }

func (m *Mem) get(name string) *memObject {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.objects[name]
}

func (m *Mem) ensure(name string) *memObject {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.objects[name]
	if o == nil {
		o = &memObject{}
		m.objects[name] = o
	}
	return o
}

func (m *Mem) read(name string) ([]byte, error) {
	o := m.get(name)
	if o == nil {
		return nil, fmt.Errorf("store: %s: %w", name, ErrNotExist)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.data...), nil
}

// memWriter appends to its object under the object lock per Write — the
// in-memory analogue of an O_APPEND file descriptor.
type memWriter struct{ o *memObject }

func (w memWriter) Write(p []byte) (int, error) {
	w.o.mu.Lock()
	w.o.data = append(w.o.data, p...)
	w.o.mu.Unlock()
	return len(p), nil
}

func (w memWriter) Close() error { return nil }

// ReadCheckpoint returns a copy of the checkpoint buffer.
func (m *Mem) ReadCheckpoint(name string) ([]byte, error) { return m.read(name) }

// CreateCheckpoint truncates or creates the checkpoint buffer.
func (m *Mem) CreateCheckpoint(name string) (io.WriteCloser, error) {
	o := m.ensure(name)
	o.mu.Lock()
	o.data = o.data[:0]
	o.mu.Unlock()
	return memWriter{o}, nil
}

// AppendCheckpoint opens the checkpoint buffer for appending.
func (m *Mem) AppendCheckpoint(name string) (io.WriteCloser, error) {
	o := m.get(name)
	if o == nil {
		return nil, fmt.Errorf("store: %s: %w", name, ErrNotExist)
	}
	return memWriter{o}, nil
}

// ListLogs matches the pattern against the stored names (the same
// filepath.Match semantics the FS store gets from Glob).
func (m *Mem) ListLogs(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.objects {
		ok, err := filepath.Match(pattern, name)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// OpenLog opens a shard buffer for reading.
func (m *Mem) OpenLog(name string) (io.ReadCloser, error) {
	data, err := m.read(name)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// AppendLog opens (creating if necessary) a shard buffer for appending,
// trimming a torn trailing record first when asked.
func (m *Mem) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	o := m.ensure(name)
	if trimTorn {
		o.mu.Lock()
		if i := bytes.LastIndexByte(o.data, '\n'); i >= 0 {
			o.data = o.data[:i+1]
		} else {
			o.data = o.data[:0]
		}
		o.mu.Unlock()
	}
	return memWriter{o}, nil
}

// RemoveLog deletes a shard buffer (nil when already absent).
func (m *Mem) RemoveLog(name string) error {
	m.mu.Lock()
	delete(m.objects, name)
	m.mu.Unlock()
	return nil
}

// Names returns every stored object name, sorted — a test and debugging
// surface.
func (m *Mem) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.objects))
	for n := range m.objects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// statically assert both implementations satisfy the full surface.
var (
	_ Store = FS{}
	_ Store = (*Mem)(nil)
)

// Join builds a store name from components with the path separator the
// FS store expects; other stores treat the result as an opaque name.
func Join(elem ...string) string { return filepath.Join(elem...) }

// Base returns the last element of a store name.
func Base(name string) string {
	if i := strings.LastIndexByte(name, filepath.Separator); i >= 0 {
		return name[i+1:]
	}
	return name
}
