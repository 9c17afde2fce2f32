package dataset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fsutil"
)

// writeManifest replaces a directory's manifest, for tests that degrade one
// by hand.
func writeManifest(dir string, m *Manifest) error { return layout.Write(dir, m) }

// TestCancelledGenerationLeavesOnlyCommittedShards cancels a generation from
// its own progress callback. The shard being encoded when the context dies
// lives only in memory, so nothing has to be told to clean it up: the
// directory holds exactly the committed shards and the manifest, and a second
// invocation finishes the dataset to the pinned digest.
func TestCancelledGenerationLeavesOnlyCommittedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	cfg.Workers = 1 // one rack in flight, so "after two commits" is exact
	dir := filepath.Join(t.TempDir(), "ds")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var committed []string
	_, err := GenerateDir(ctx, dir, cfg, func(p Progress) {
		committed = append(committed, shardFileName(p.Region, p.ID))
		if len(committed) == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled generation: err = %v, want context.Canceled", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), fsutil.TempPrefix) {
			t.Errorf("cancelled generation left temp file %s", e.Name())
		}
		got = append(got, e.Name())
	}
	want := append([]string{ManifestName}, committed...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("directory holds %v, want exactly %v", got, want)
	}
	if r, err := Open(dir); err != nil {
		t.Fatal(err)
	} else if done, _ := r.Progress(); done != 2 || r.Complete() {
		t.Errorf("after cancel: %d shards done, complete=%v; want 2, false", done, r.Complete())
	}

	r, err := GenerateDir(context.Background(), dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, ds), tinyDigest(t); got != want {
		t.Errorf("resumed-after-cancel digest %s != uninterrupted digest %s", got, want)
	}
}

// TestManifestCannotPointOutsideDirectory plants a manifest whose shard entry
// names a file in the parent directory and claims it complete with a digest
// it cannot match. Resume used to "demote" that unit by deleting the file.
func TestManifestCannotPointOutsideDirectory(t *testing.T) {
	cfg := tinyConfig()
	root := t.TempDir()
	dir := filepath.Join(root, "ds")
	if _, err := Create(dir, cfg); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(root, "victim.txt")
	if err := os.WriteFile(victim, []byte("not yours"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Read the raw JSON: readManifest itself must refuse what is written next.
	var man Manifest
	if err := fsutil.ReadJSON(filepath.Join(dir, ManifestName), &man); err != nil {
		t.Fatal(err)
	}
	man.Shards[0].File, man.Shards[0].Digest, man.Shards[0].Complete = "../victim.txt", "00", true
	if err := fsutil.WriteJSONAtomic(dir, ManifestName, &man); err != nil {
		t.Fatal(err)
	}

	if _, err := Create(dir, cfg); err == nil {
		t.Error("Create resumed over a manifest that names ../victim.txt")
	}
	if _, err := Open(dir); err == nil {
		t.Error("Open accepted a manifest that names ../victim.txt")
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != "not yours" {
		t.Errorf("file outside the dataset directory: %q, %v", data, err)
	}
}

// TestShardWriterAbortRefusesCommit pins what is left of Abort now that a
// shard is a buffer: it discards, and a later Commit cannot land the shard.
func TestShardWriterAbortRefusesCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := Create(dir, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta := fleet.RackMeta{Region: fleet.RegA, ID: 0}
	sw, err := w.Begin(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Run(fleet.RunSummary{Region: fleet.RegA, RackID: 0}); err != nil {
		t.Fatal(err)
	}
	sw.Abort()
	sw.Abort() // idempotent
	if err := sw.Commit(meta); err == nil {
		t.Error("Commit after Abort succeeded")
	}
	if w.Done(fleet.RegA, 0) {
		t.Error("aborted shard is marked complete")
	}
	if _, err := os.Stat(filepath.Join(dir, shardFileName(fleet.RegA, 0))); !os.IsNotExist(err) {
		t.Errorf("aborted shard reached the directory (stat err %v)", err)
	}
}
