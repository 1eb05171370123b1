// Tier backends: where a store's checkpoint and manifest files live. The
// directory backend is the real one (temp file, fsync, rename), for
// stores a training job resumes from after a crash. The memory backend
// holds the simulated tiers of the experiments: their files only ever
// live for one run, so fsyncing them into host temp directories bought
// nothing but disk latency and a dependency on the host's /tmp. Every
// check the store makes — manifest sizes, section and whole-file CRCs,
// the drain gate — runs on the bytes either backend returns.
package checkpoint

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// backend is the file layer under a Store, addressed by path.
type backend interface {
	// write durably replaces path with what fill writes.
	write(path string, fill func(io.Writer) error) error
	// read returns path's bytes; callers must not modify them. A missing
	// path is an error matching fs.ErrNotExist.
	read(path string) ([]byte, error)
	remove(path string) error
	// truncate cuts path to its first size bytes.
	truncate(path string, size int64) error
}

// dirBackend keeps tiers as directories on the host file system.
type dirBackend struct{}

// write streams fill through a buffer into path+".tmp", fsyncs it so the
// rename cannot publish an unwritten file, then renames it over path.
func (dirBackend) write(path string, fill func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriter(f)
	if err = fill(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

func (dirBackend) read(path string) ([]byte, error) { return os.ReadFile(path) }

func (dirBackend) remove(path string) error { return os.Remove(path) }

func (dirBackend) truncate(path string, size int64) error { return os.Truncate(path, size) }

// memBackend keeps every tier's files as byte slices. A stored slice is
// never modified after it is stored: writes store a fresh buffer and a
// truncation keeps a prefix, so reads can hand out the slice itself.
type memBackend struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{files: map[string][]byte{}} }

// write stores a private copy of what fill writes: no two paths, and so
// no two tiers, ever share bytes.
func (m *memBackend) write(path string, fill func(io.Writer) error) error {
	var b bytes.Buffer
	if err := fill(&b); err != nil {
		return err
	}
	m.mu.Lock()
	m.files[path] = b.Bytes()
	m.mu.Unlock()
	return nil
}

func (m *memBackend) read(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	return b, nil
}

func (m *memBackend) remove(path string) error {
	m.mu.Lock()
	delete(m.files, path)
	m.mu.Unlock()
	return nil
}

func (m *memBackend) truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: path, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(b)) {
		return &fs.PathError{Op: "truncate", Path: path, Err: fs.ErrInvalid}
	}
	m.files[path] = b[:size:size]
	return nil
}
