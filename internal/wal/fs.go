// Filesystem seam for the WAL. The logger and the recovery scanner
// talk to an FS interface rather than the os package so that crash
// tests can run against MemFS: an in-memory filesystem that tracks,
// per file, how much of the written data has actually been fsynced.
// MemFS.Crash() throws away everything past each file's synced prefix
// — exactly what SIGKILL plus a lost page cache does to a real log —
// which lets the kill-point matrix exercise torn tails deterministically
// and without subprocesses.
package wal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the slice of *os.File the WAL needs for an open segment.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts the directory holding WAL segments.
type FS interface {
	// Create creates (or truncates) the named file for appending. The
	// file it returns is durably named: once a Sync on it has returned,
	// a crash loses neither the synced bytes nor the directory entry
	// that leads to them.
	Create(name string) (File, error)
	// ReadFile returns the full contents of the named file.
	ReadFile(name string) ([]byte, error)
	// List returns the names of regular files in the directory, sorted.
	List() ([]string, error)
	// Remove deletes the named file.
	Remove(name string) error
	// WriteFileAtomic replaces the named file's contents (used by
	// recovery to truncate a torn tail in place).
	WriteFileAtomic(name string, data []byte) error
}

// --- DirFS ---------------------------------------------------------------

// DirFS is the production FS: a single OS directory. The segment files
// it creates are positional and preallocating (segFile): on disk a live
// segment is its records followed by up to zeroChunk bytes of zeros,
// which Close trims and which recovery reads as the end of the segment.
type DirFS struct{ dir string }

// NewDirFS returns a DirFS rooted at dir, creating it if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

func (d *DirFS) path(name string) string { return filepath.Join(d.dir, name) }

// Create implements FS.
func (d *DirFS) Create(name string) (File, error) {
	f, err := os.OpenFile(d.path(name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	// Nothing else syncs the new directory entry: without this, "acked
	// implies durable" would lean on the filesystem happening to commit
	// the entry along with the first batch's fsync.
	if err := syncDir(d.dir); err != nil {
		f.Close()
		return nil, err
	}
	return &segFile{f: f}, nil
}

// zeroChunk is how far ahead of its records a segment file is kept
// zero-written. One group commit in zeroChunk/batch-size (≈ 150 at the
// benchmark's 6.8 KB batches) extends the file and so pays a filesystem
// journal commit in its fsync; the others overwrite written blocks in
// place, which costs the data write and one device flush. Measured, not
// tunable: see DESIGN.md, "WAL on-disk format".
const zeroChunk = 1 << 20

// zeros is the source of every extension write. Never written to, so it
// stays untouched BSS.
var zeros [zeroChunk]byte

// segFile is the File DirFS hands out. Write appends, but by WriteAt at
// the file's own logical size into blocks that were already WRITTEN, as
// zeros: an fsync after growing a file, or after writing into
// fallocate'd (allocated but unwritten) extents, has to commit the inode
// to the filesystem journal; an fsync after overwriting written blocks
// does not. A crash therefore leaves the zero tail Close would have
// trimmed, and recovery accepts it as the end of the segment.
type segFile struct {
	f      *os.File
	size   int64 // logical size: record bytes written
	zeroed int64 // the file is zero-written up to here, a zeroChunk multiple
}

func (s *segFile) Write(p []byte) (int, error) {
	// The extension is ordinary dirty data: the Sync that makes p durable
	// covers it too.
	for end := s.size + int64(len(p)); s.zeroed < end; s.zeroed += zeroChunk {
		if _, err := s.f.WriteAt(zeros[:], s.zeroed); err != nil {
			return 0, err
		}
	}
	n, err := s.f.WriteAt(p, s.size)
	s.size += int64(n)
	return n, err
}

func (s *segFile) Sync() error { return s.f.Sync() }

// Close trims the zero tail and makes the trim durable, so a segment
// closed by rotation or a clean shutdown is exactly its records.
func (s *segFile) Close() error {
	err := s.f.Truncate(s.size)
	if err == nil {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile implements FS.
func (d *DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(d.path(name))
}

// List implements FS.
func (d *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error { return os.Remove(d.path(name)) }

// WriteFileAtomic implements FS via write-to-temp + rename + dir sync,
// so a crash during truncation leaves either the old or the new file.
func (d *DirFS) WriteFileAtomic(name string, data []byte) error {
	tmp := d.path(name + ".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(d.dir)
}

func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	// Directory fsync is advisory: some filesystems reject it (EINVAL)
	// even though the rename is already durable enough for a log whose
	// tail is checksummed. Surface open errors, tolerate sync ones.
	_ = df.Sync()
	return nil
}

// --- MemFS ---------------------------------------------------------------

// MemFS is an in-memory FS with crash semantics: each file remembers
// the prefix that has been "fsynced", and Crash() rolls every file back
// to that prefix, discarding writes that were acknowledged by Write but
// never reached Sync — the data a real kernel keeps in the page cache
// and loses on power failure or SIGKILL-without-sync.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	fs     *MemFS
	name   string
	data   []byte
	synced int
	closed bool
}

// NewMemFS returns an empty MemFS.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{fs: m, name: name}
	m.files[name] = f
	return f, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// WriteFileAtomic implements FS. In memory the replacement is trivially
// atomic and durable.
func (m *MemFS) WriteFileAtomic(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{fs: m, name: name, data: append([]byte(nil), data...)}
	f.synced = len(f.data)
	f.closed = true
	m.files[name] = f
	return nil
}

// Crash simulates a process kill plus page-cache loss: every file is
// truncated to its synced prefix. Open handles become stale — a logger
// using this FS must be abandoned, not closed, after Crash.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data = f.data[:f.synced]
		f.closed = true
	}
}

// Append appends raw bytes to the named file as if they were written
// and synced — for building torn/garbage-tail fixtures.
func (m *MemFS) Append(name string, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "append", Path: name, Err: fs.ErrNotExist}
	}
	f.data = append(f.data, p...)
	f.synced = len(f.data)
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.synced = len(f.data)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
