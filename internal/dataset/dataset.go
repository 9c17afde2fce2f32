// Package dataset implements the sharded on-disk fleet dataset: a directory
// of per-rack shard files plus a JSON manifest recording the generation
// config, seed, per-shard digests, and completion status.
//
// The format exists so paper-scale generations (2 regions × ~1000 racks ×
// 92 servers, hourly — a multi-hour job) survive interruption: every rack's
// runs stream to its own shard file as the worker finishes them, the
// manifest marks shards complete one by one, and a re-invoked generation
// skips digest-verified completed shards and produces the remainder. The
// final dataset is byte-identical to an uninterrupted run's.
//
// Layout:
//
//	<dir>/manifest.json             config, seed, shard table, rack metadata
//	<dir>/shard-RegA-00007.gob.gz   gzip'd gob: shardHeader, then RunSummary*
//
// Readers stream shard by shard, so peak memory is bounded by one rack's
// runs rather than the fleet. This is the only dataset format: the tools
// refuse a regular file where a dataset directory is expected (see Open).
package dataset

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/unitstore"
)

// FormatVersion is bumped on any incompatible change to the manifest or
// shard encoding.
const FormatVersion = 1

// ManifestName is the manifest file within a dataset directory.
const ManifestName = "manifest.json"

// ErrConfigMismatch matches (via errors.Is) an attempt to resume a dataset
// directory with a different config or seed than it was started with.
var ErrConfigMismatch = errors.New("dataset: config mismatch")

// ErrIncomplete matches an attempt to read a dataset whose generation has
// not finished; re-run cmd/fleetgen with the same flags to resume it.
var ErrIncomplete = errors.New("dataset: generation incomplete")

// ErrCorruptShard matches a shard whose contents do not hash to the digest
// recorded in the manifest.
var ErrCorruptShard = errors.New("dataset: corrupt shard")

// layout makes a dataset directory a resumable unit store whose units are the
// per-rack shards; unitstore owns the commit order and the resume checks.
var layout = unitstore.Layout{
	Pkg:          "dataset",
	ManifestName: ManifestName,
	Version:      FormatVersion,
	Corrupt:      ErrCorruptShard,
	Incomplete:   ErrIncomplete,
}

// Manifest is the dataset directory's table of contents.
type Manifest struct {
	FormatVersion int
	// Config is the normalized generation configuration (zero fields
	// resolved to defaults). Workers is recorded as 0: it only affects
	// scheduling, never results, and must not block resuming on a machine
	// with a different core count.
	Config fleet.Config
	// Shards lists every expected shard in generation order (RegA racks by
	// id, then RegB), present from the moment the directory is created so
	// progress is always len(complete)/len(total).
	Shards []ShardEntry
	// Racks is the classified per-rack metadata, filled by Finalize once
	// every shard is complete. Order matches Shards.
	Racks []fleet.RackMeta
	// Complete is set by Finalize; readers refuse datasets without it.
	Complete bool
}

// ShardEntry tracks one rack's shard.
type ShardEntry struct {
	Region string
	ID     int
	// File is the shard's name within the directory.
	File string
	// Runs counts the rack-hours in the shard; Collected how many of them
	// produced an aligned run (failed collections are recorded, not
	// dropped).
	Runs      int
	Collected int
	// Digest is the sha256 hex of the shard file's bytes; resume and read
	// paths verify it before trusting the shard.
	Digest string
	// Meta is the rack's metadata with BusyAvgContention measured; Class is
	// only meaningful in Manifest.Racks, where Finalize sets it.
	Meta     fleet.RackMeta
	Complete bool
}

// The unitstore.Manifest view: shards are the units, Complete the seal.
func (m *Manifest) Version() int  { return m.FormatVersion }
func (m *Manifest) Units() int    { return len(m.Shards) }
func (m *Manifest) Sealed() *bool { return &m.Complete }
func (m *Manifest) Unit(i int) (file string, digest *string, complete *bool) {
	s := &m.Shards[i]
	return s.File, &s.Digest, &s.Complete
}

// Demote forgets everything a commit recorded, leaving the bare entry Create
// wrote.
func (m *Manifest) Demote(i int) {
	s := &m.Shards[i]
	*s = ShardEntry{Region: s.Region, ID: s.ID, File: s.File}
}

// shardHeader opens every shard file so a stray file can be matched to its
// manifest entry.
type shardHeader struct {
	FormatVersion int
	Region        string
	ID            int
}

// shardFileName returns the canonical shard file name for a rack.
func shardFileName(region string, id int) string {
	return fmt.Sprintf("shard-%s-%05d.gob.gz", region, id)
}

func shardKey(region string, id int) string { return fmt.Sprintf("%s/%d", region, id) }

// configsMatch reports whether a resume config is compatible with the
// manifest's.
func configsMatch(a, b fleet.Config) bool {
	return reflect.DeepEqual(a.Stored(), b.Stored())
}

// IsDir reports whether path holds a sharded dataset (a manifest.json).
func IsDir(path string) bool { return layout.IsDir(path) }

// readManifest loads and sanity-checks a directory's manifest.
func readManifest(dir string) (*Manifest, error) {
	var m Manifest
	if err := layout.Read(dir, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
