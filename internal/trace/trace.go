// Package trace persists host measurement runs: gzip-compressed gob files in
// a host-local run store with retention, mirroring the production tool's
// "compressed and stored on the host for about a week" behaviour (paper
// §4.2). Fleet datasets live in internal/dataset, not here.
//
// Writes are atomic and durable (fsutil.WriteFileAtomic), so a crash
// mid-write never leaves a half-written file behind under the final name, and
// corrupt files are reported with a typed error the caller can match with
// errors.Is / errors.As.
package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fsutil"
)

// ErrCorrupt matches (via errors.Is) any load failure caused by a damaged
// file: bad gzip framing, a failed checksum, truncation, or an undecodable
// gob stream.
var ErrCorrupt = errors.New("trace: corrupt file")

// CorruptError reports an unreadable trace file. It wraps the underlying
// decode error and matches ErrCorrupt.
type CorruptError struct {
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt file %s: %v", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrCorrupt) match without callers knowing the
// concrete type.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Save writes v to path as gzip-compressed gob. Parent directories are
// created as needed. The write goes through fsutil.WriteFileAtomic, so
// readers never observe a partially written file and a completed Save
// survives power loss like the dataset and sweep manifests do.
func Save(path string, v any) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(v); err != nil {
		return fmt.Errorf("trace: encode %s: %w", path, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := fsutil.WriteFileAtomic(dir, filepath.Base(path), buf.Bytes()); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Load reads gzip-compressed gob from path into v. Damaged files yield a
// *CorruptError (matching ErrCorrupt); a missing file yields the underlying
// fs error (matching fs.ErrNotExist).
func Load(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return &CorruptError{Path: path, Err: err}
	}
	defer zr.Close()
	if err := gob.NewDecoder(zr).Decode(v); err != nil {
		return &CorruptError{Path: path, Err: err}
	}
	// Drain the remainder so the gzip checksum (verified at stream end)
	// catches tail corruption the decoder didn't need to read.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return &CorruptError{Path: path, Err: err}
	}
	return nil
}

// verifyFile checks a file's gzip integrity (framing and checksum) without
// needing the gob's concrete type.
func verifyFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return &CorruptError{Path: path, Err: err}
	}
	defer zr.Close()
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return &CorruptError{Path: path, Err: err}
	}
	return nil
}

// Store is a host-local directory of sequentially numbered run files with a
// bounded retention count (oldest evicted first).
type Store struct {
	dir    string
	keep   int
	nextID int
}

// NewStore opens (creating if needed) a store that retains at most keep
// runs.
func NewStore(dir string, keep int) (*Store, error) {
	if keep <= 0 {
		keep = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	s := &Store{dir: dir, keep: keep}
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	if len(ids) > 0 {
		s.nextID = ids[len(ids)-1] + 1
	}
	return s, nil
}

func (s *Store) path(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("run-%08d.gob.gz", id))
}

func (s *Store) ids() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var ids []int
	for _, e := range entries {
		var id int
		if _, err := fmt.Sscanf(e.Name(), "run-%d.gob.gz", &id); err != nil {
			continue
		}
		// Sscanf ignores trailing input, so demand an exact name: temp and
		// quarantined files must not count as runs.
		if e.Name() != fmt.Sprintf("run-%08d.gob.gz", id) {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids, nil
}

// Put stores one run and applies retention.
func (s *Store) Put(v any) (int, error) {
	id := s.nextID
	if err := Save(s.path(id), v); err != nil {
		return 0, err
	}
	s.nextID++
	ids, err := s.ids()
	if err != nil {
		return id, err
	}
	for len(ids) > s.keep {
		if err := os.Remove(s.path(ids[0])); err != nil {
			return id, fmt.Errorf("trace: evict: %w", err)
		}
		ids = ids[1:]
	}
	return id, nil
}

// Get loads run id into v.
func (s *Store) Get(id int, v any) error { return Load(s.path(id), v) }

// IDs lists retained run ids in ascending order.
func (s *Store) IDs() ([]int, error) { return s.ids() }

// Verify scans every retained run for corruption (gzip framing and
// checksum). Damaged files are quarantined — renamed aside with a .corrupt
// suffix so they stop showing up in IDs but remain on disk for inspection —
// and their ids are returned.
func (s *Store) Verify() (quarantined []int, err error) {
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		verr := verifyFile(s.path(id))
		if verr == nil {
			continue
		}
		if !errors.Is(verr, ErrCorrupt) {
			return quarantined, verr
		}
		if rerr := os.Rename(s.path(id), s.path(id)+".corrupt"); rerr != nil {
			return quarantined, fmt.Errorf("trace: quarantine: %w", rerr)
		}
		quarantined = append(quarantined, id)
	}
	return quarantined, nil
}
