// Package unitstore is the one resumable result directory under the sharded
// dataset and the sweep point store: a JSON manifest listing every expected
// unit (a shard, a grid point) from the moment the directory is created, one
// file per unit, and the single rule for when a byte in the directory may be
// trusted.
//
// The rule is an order. A unit's bytes are written durably under their final
// name (fsutil.WriteFileAtomic: temp file, fsync, rename, directory fsync)
// before the manifest that marks the unit complete with their sha256 is
// itself durably replaced, all under one lock — so the manifest never names a
// unit whose file is not yet on disk, and a kill at any instant leaves at
// worst a temp file or an unlisted unit file, both reclaimed by the next
// Create. On resume every unit the manifest calls complete is re-hashed; one
// that is missing or does not match is deleted and demoted to pending, and
// the seal is dropped until the codec seals again.
//
// The codecs (internal/dataset, internal/sweep) own what a unit is, what else
// the manifest records, when a resume is refused and what sealing computes.
package unitstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fsutil"
)

// Manifest is the view of a codec's manifest the store needs. Unit and Sealed
// return pointers into the manifest so the store can mark what it commits.
type Manifest interface {
	Version() int
	Units() int
	Unit(i int) (file string, digest *string, complete *bool)
	// Demote resets unit i to pending, clearing whatever the codec recorded
	// at its commit.
	Demote(i int)
	Sealed() *bool
}

// Layout is what differs between the codecs' directories.
type Layout struct {
	Pkg          string // error prefix
	ManifestName string
	Version      int
	Corrupt      error // wrapped when a unit file does not match its digest
	Incomplete   error // wrapped when Seal finds pending units
}

// IsDir reports whether path holds a store of this layout (its manifest).
func (l Layout) IsDir(path string) bool {
	fi, err := os.Stat(filepath.Join(path, l.ManifestName))
	return err == nil && fi.Mode().IsRegular()
}

// Read loads dir's manifest into man and refuses one this build must not act
// on: another format version, a unit file name that could reach outside the
// directory or alias the manifest or a temp file (resume deletes and commit
// overwrites whatever a unit names), or a seal over no units at all.
func (l Layout) Read(dir string, man Manifest) error {
	if err := fsutil.ReadJSON(filepath.Join(dir, l.ManifestName), man); err != nil {
		return fmt.Errorf("%s: manifest: %w", l.Pkg, err)
	}
	if man.Version() != l.Version {
		return fmt.Errorf("%s: %s has format version %d, this build reads %d",
			l.Pkg, dir, man.Version(), l.Version)
	}
	for i := 0; i < man.Units(); i++ {
		f, _, _ := man.Unit(i)
		if f != filepath.Base(f) || f == "." || f == ".." ||
			strings.HasPrefix(f, fsutil.TempPrefix) || f == l.ManifestName {
			return fmt.Errorf("%s: manifest in %s names unit %d's file %q, not a plain file name",
				l.Pkg, dir, i, f)
		}
	}
	if *man.Sealed() && man.Units() == 0 {
		return fmt.Errorf("%s: manifest in %s is sealed over no units", l.Pkg, dir)
	}
	return nil
}

// Write atomically and durably replaces dir's manifest, so an interrupted
// update never leaves a torn manifest behind.
func (l Layout) Write(dir string, man Manifest) error {
	if err := fsutil.WriteJSONAtomic(dir, l.ManifestName, man); err != nil {
		return fmt.Errorf("%s: manifest: %w", l.Pkg, err)
	}
	return nil
}

// Verify checks that a unit file hashes to the recorded digest.
func (l Layout) Verify(path, digest string) error {
	got, err := fsutil.FileSHA256(path)
	if err != nil {
		return fmt.Errorf("%w: %v", l.Corrupt, err)
	}
	if got != digest {
		return fmt.Errorf("%w: %s digests %s, manifest records %s", l.Corrupt, path, got, digest)
	}
	return nil
}

// Progress returns a manifest's complete and total unit counts.
func Progress(man Manifest) (done, total int) {
	for i := 0; i < man.Units(); i++ {
		if _, _, complete := man.Unit(i); *complete {
			done++
		}
	}
	return done, man.Units()
}

// Store is an open result directory. It is safe for concurrent commits;
// every access to the manifest is serialized by its lock.
type Store struct {
	l   Layout
	dir string

	mu  sync.Mutex
	man Manifest
}

// Create opens dir for (resumed) production into man. A directory without a
// manifest is fresh: init fills man with every expected unit, pending. An
// existing manifest is read into man and match decides whether this
// invocation may continue it; its error is returned before anything in the
// directory is touched. Then stale temp files are removed, complete units
// that are missing or fail digest verification are deleted and demoted so
// they are produced again, and the manifest is rewritten — sealed only if it
// was and nothing was demoted.
func Create(l Layout, dir string, man Manifest, init func(), match func() error) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", l.Pkg, err)
	}
	if l.IsDir(dir) {
		if err := l.Read(dir, man); err != nil {
			return nil, err
		}
		if err := match(); err != nil {
			return nil, err
		}
	} else {
		init()
	}
	if err := fsutil.RemoveTempFiles(dir); err != nil {
		return nil, fmt.Errorf("%s: %w", l.Pkg, err)
	}
	for i := 0; i < man.Units(); i++ {
		file, digest, complete := man.Unit(i)
		if *complete && l.Verify(filepath.Join(dir, file), *digest) != nil {
			// Produce it again rather than trust it; keep nothing that could
			// mix a damaged unit into the result.
			os.Remove(filepath.Join(dir, file))
			man.Demote(i)
		}
	}
	done, total := Progress(man)
	*man.Sealed() = *man.Sealed() && done == total
	if err := l.Write(dir, man); err != nil {
		return nil, err
	}
	return &Store{l: l, dir: dir, man: man}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Done reports whether unit i is committed.
func (s *Store) Done(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.man.Units() {
		return false
	}
	_, _, complete := s.man.Unit(i)
	return *complete
}

// Progress returns committed and total unit counts.
func (s *Store) Progress() (done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Progress(s.man)
}

// View runs fn under the manifest lock — how a codec reads (and copies out
// of) its own manifest while commits are in flight.
func (s *Store) View(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Commit lands unit i: data is durably written under the unit's file name,
// then the unit is marked complete with data's digest, record (if non-nil)
// adds what else the codec keeps per commit, and the manifest is durably
// replaced — one critical section, in that order. With ifNew a unit already
// complete is left untouched (committed=false, nil error): however often a
// distributed result is redelivered, exactly one commit mutates the store.
func (s *Store) Commit(i int, data []byte, ifNew bool, record func()) (committed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.man.Units() {
		return false, fmt.Errorf("%s: unit %d not in manifest", s.l.Pkg, i)
	}
	file, digest, complete := s.man.Unit(i)
	if ifNew && *complete {
		return false, nil
	}
	if err := fsutil.WriteFileAtomic(s.dir, file, data); err != nil {
		return false, fmt.Errorf("%s: %w", s.l.Pkg, err)
	}
	*digest, *complete = fsutil.SHA256(data), true
	if record != nil {
		record()
	}
	if err := s.l.Write(s.dir, s.man); err != nil {
		return false, err
	}
	return true, nil
}

// Seal marks the store complete. It refuses with the layout's Incomplete
// while units are pending; otherwise finish computes the codec's store-level
// results into the manifest (or refuses) and the sealed manifest is written.
func (s *Store) Seal(finish func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done, total := Progress(s.man); done < total {
		return fmt.Errorf("%w: %d of %d units pending", s.l.Incomplete, total-done, total)
	}
	if err := finish(); err != nil {
		return err
	}
	*s.man.Sealed() = true
	return s.l.Write(s.dir, s.man)
}
