package sweep

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsutil"
)

// TestSealedEmptySweepIsRefused: a manifest sealed over zero points used to
// open and then panic Report at Points[0]; it is not a result.
func TestSealedEmptySweepIsRefused(t *testing.T) {
	dir := t.TempDir()
	raw := `{"FormatVersion":1,"Points":[],"Complete":true}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := Open(dir); err == nil {
		t.Errorf("Open accepted a sealed sweep with %d points", len(res.Points))
	}
	if _, err := Inspect(dir); err == nil {
		t.Error("Inspect accepted a sealed sweep with no points")
	}
}

// TestManifestCannotPointOutsideDirectory plants a manifest whose point entry
// names a file in the parent directory and claims it complete with a digest
// it cannot match. Resume used to "demote" that unit by deleting the file.
func TestManifestCannotPointOutsideDirectory(t *testing.T) {
	s := tinySpec(29)
	root := t.TempDir()
	dir := filepath.Join(root, "sw")
	if _, err := Create(dir, s); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(root, "victim.txt")
	if err := os.WriteFile(victim, []byte("not yours"), 0o644); err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := fsutil.ReadJSON(filepath.Join(dir, ManifestName), &man); err != nil {
		t.Fatal(err)
	}
	man.Points[1].File, man.Points[1].Digest, man.Points[1].Complete = "../victim.txt", "00", true
	if err := fsutil.WriteJSONAtomic(dir, ManifestName, &man); err != nil {
		t.Fatal(err)
	}

	if _, err := Create(dir, s); err == nil {
		t.Error("Create resumed over a manifest that names ../victim.txt")
	}
	if _, err := Inspect(dir); err == nil {
		t.Error("Inspect accepted a manifest that names ../victim.txt")
	}
	// Sealed, Open would go on to read every point file it names.
	man.Complete = true
	if err := fsutil.WriteJSONAtomic(dir, ManifestName, &man); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a manifest that names ../victim.txt")
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "not yours" {
		t.Errorf("file outside the sweep directory: %q, %v", data, err)
	}
}
