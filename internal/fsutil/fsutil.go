// Package fsutil holds the small filesystem primitives under the resumable
// unit store (internal/unitstore): atomic durable file replacement,
// whole-file digests, and stale temp-file cleanup. A killed process leaves at worst a .tmp- file that the next
// invocation sweeps away, never a torn file under a final name.
//
// Atomic replacement is durable, not just atomic: the temp file is fsynced
// before the rename and the parent directory after it, so a sealed manifest
// survives power loss, not only process death. (rename alone orders the
// change in the page cache; a crash before writeback can resurrect the old
// file, or worse, a new name pointing at unwritten data.)
package fsutil

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// TempPrefix marks in-progress files; RemoveTempFiles reclaims them.
const TempPrefix = ".tmp-"

// syncFile and syncDir are seams so the crash-window test can observe the
// fsync ordering around the rename without faking a power loss.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		// A directory fsync failure is reported, but close regardless.
		serr := d.Sync()
		cerr := d.Close()
		if serr != nil {
			return serr
		}
		return cerr
	}
)

// MarshalJSON is the on-disk JSON form of every manifest and sweep point:
// indented, with a trailing newline.
func MarshalJSON(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fsutil: %w", err)
	}
	return append(data, '\n'), nil
}

// WriteJSONAtomic marshals v with MarshalJSON and atomically and durably
// replaces dir/name with it (see WriteFileAtomic).
func WriteJSONAtomic(dir, name string, v any) error {
	data, err := MarshalJSON(v)
	if err != nil {
		return err
	}
	return WriteFileAtomic(dir, name, data)
}

// WriteFileAtomic atomically and durably replaces dir/name with data: temp
// file, fsync, rename, directory fsync. An interrupted update never leaves a
// torn file behind, and a completed one survives power loss.
func WriteFileAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, TempPrefix+name+"-")
	if err != nil {
		return fmt.Errorf("fsutil: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsutil: %w", err)
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsutil: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsutil: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fsutil: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("fsutil: fsync %s: %w", dir, err)
	}
	return nil
}

// ReadJSON unmarshals one JSON file into v.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fsutil: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("fsutil: %s: %w", path, err)
	}
	return nil
}

// SHA256 returns the hex sha256 of a byte slice, the digest form recorded in
// manifests.
func SHA256(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// FileSHA256 returns the hex sha256 of a file's bytes — the digest form
// recorded in manifests and verified on every resume and read.
func FileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("fsutil: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("fsutil: %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RemoveTempFiles deletes stale TempPrefix files left in dir by a killed
// process.
func RemoveTempFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("fsutil: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), TempPrefix) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("fsutil: %w", err)
			}
		}
	}
	return nil
}
