package dataset

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fleet"
	"repro/internal/unitstore"
)

// Reader streams a sharded dataset. It is the source the experiments and
// inspection tools consume (Config / RackMetas / EachRun / RackRuns), reading
// one shard at a time, so peak memory is one rack's runs rather than the
// fleet's.
//
// A Reader is immutable after Open, so one instance may be shared by any
// number of concurrent shard walks — the query service serves every client
// of a dataset from a single cached Reader. Each walk opens its own file
// handles; no state is shared between walks.
type Reader struct {
	dir string
	man *Manifest

	classes map[string]fleet.Class
}

// Open reads the manifest of a dataset directory. The reader is returned
// even when the generation is incomplete — Complete and Progress report the
// state — but the data accessors refuse with ErrIncomplete until the
// generation has been resumed to the end. A regular file at dir is refused:
// the sharded directory is the only dataset format.
func Open(dir string) (*Reader, error) {
	man, err := readManifest(dir)
	if err != nil {
		if fi, serr := os.Stat(dir); serr == nil && fi.Mode().IsRegular() {
			return nil, fmt.Errorf("dataset: %s is a regular file: single-file datasets are no longer read; regenerate with `fleetgen -o DIR` — generation is deterministic in the config", dir)
		}
		return nil, err
	}
	r := &Reader{dir: dir, man: man, classes: make(map[string]fleet.Class, len(man.Racks))}
	for i := range man.Racks {
		r.classes[shardKey(man.Racks[i].Region, man.Racks[i].ID)] = man.Racks[i].Class
	}
	return r, nil
}

// Complete reports whether generation (including Finalize) has finished.
func (r *Reader) Complete() bool { return r.man.Complete }

// Progress returns completed and total shard counts.
func (r *Reader) Progress() (done, total int) { return unitstore.Progress(r.man) }

// Shards exposes the manifest's shard table (for inspection tools).
func (r *Reader) Shards() []ShardEntry { return r.man.Shards }

// Config returns the dataset's normalized generation config (Workers is 0;
// it never affects results).
func (r *Reader) Config() fleet.Config { return r.man.Config }

// StoreDigest returns the dataset's store-level fingerprint: a sha256 over
// the per-shard content digests in manifest (generation) order. Because the
// shard digests cover the exact file bytes, two directories fingerprint
// identically iff every shard is byte-identical — the same property the
// canonical fleet.Dataset.Digest has, but computable from the manifest alone
// without decoding a single run. The query service keys render caches and
// ETags on it. It errors on an incomplete dataset: shards still pending have
// no digest to fingerprint.
func (r *Reader) StoreDigest() (string, error) {
	if !r.man.Complete {
		return "", r.incompleteErr()
	}
	h := sha256.New()
	for i := range r.man.Shards {
		s := &r.man.Shards[i]
		fmt.Fprintf(h, "%s/%d:%s\n", s.Region, s.ID, s.Digest)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// RackMetas returns the classified per-rack metadata.
func (r *Reader) RackMetas() []fleet.RackMeta { return r.man.Racks }

// EachRun streams every run with its rack's measured class, shard by shard
// in manifest (generation) order. Each shard is digest-verified as it is
// read. Runs whose rack is missing from the metadata are not delivered;
// their count is returned. The *RunSummary is only valid for the duration
// of the callback — copy it to retain it.
func (r *Reader) EachRun(fn func(run *fleet.RunSummary, c fleet.Class) error) (skipped int, err error) {
	return r.EachRunCtx(context.Background(), fn)
}

// EachRunCtx is EachRun with cancellation threaded into the shard walk: the
// context is checked before every shard and every delivered run, so a
// cancelled request (a query-service client going away, a deadline firing)
// abandons the walk within one run's decode rather than reading the whole
// dataset to the end. The walk's error is ctx.Err() in that case.
func (r *Reader) EachRunCtx(ctx context.Context, fn func(run *fleet.RunSummary, c fleet.Class) error) (skipped int, err error) {
	if !r.man.Complete {
		return 0, r.incompleteErr()
	}
	for i := range r.man.Shards {
		if err := ctx.Err(); err != nil {
			return skipped, err
		}
		entry := &r.man.Shards[i]
		class, ok := r.classes[shardKey(entry.Region, entry.ID)]
		if !ok {
			// Degraded metadata: the rack's runs cannot be classified.
			// Count them as skipped rather than misclassifying.
			skipped += entry.Runs
			continue
		}
		err := r.readShard(entry, func(run *fleet.RunSummary) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fn(run, class)
		})
		if err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// RackRuns reads one rack's runs (a single shard).
func (r *Reader) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	if !r.man.Complete {
		return nil, r.incompleteErr()
	}
	for i := range r.man.Shards {
		entry := &r.man.Shards[i]
		if entry.Region != region || entry.ID != id {
			continue
		}
		var runs []fleet.RunSummary
		err := r.readShard(entry, func(run *fleet.RunSummary) error {
			runs = append(runs, *run)
			return nil
		})
		return runs, err
	}
	return nil, fmt.Errorf("dataset: no rack %s/%d in %s", region, id, r.dir)
}

// Dataset decodes the whole store into memory, in generation order, for the
// one thing that needs every run at once: the canonical fleet.Dataset.Digest
// the benchmark, dsinspect -digest and the chaos tests compare. Nothing
// analyses through it; avoid it for paper-scale datasets.
func (r *Reader) Dataset() (*fleet.Dataset, error) {
	if !r.man.Complete {
		return nil, r.incompleteErr()
	}
	ds := &fleet.Dataset{Cfg: r.man.Config, Racks: r.man.Racks}
	for i := range r.man.Shards {
		err := r.readShard(&r.man.Shards[i], func(run *fleet.RunSummary) error {
			ds.Runs = append(ds.Runs, *run)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return ds, nil
}

func (r *Reader) incompleteErr() error {
	done, total := r.Progress()
	return fmt.Errorf("%w: %d of %d shards in %s; resume with cmd/fleetgen using the same flags",
		ErrIncomplete, done, total, r.dir)
}

// readShard decodes one shard, hashing the file as it streams and verifying
// the digest against the manifest before the caller's results are trusted…
// which they already were, run by run. The hash check happens at EOF; a
// mismatch fails the read even though callbacks already ran, so callers
// must treat an error as invalidating everything delivered.
func (r *Reader) readShard(entry *ShardEntry, fn func(*fleet.RunSummary) error) error {
	path := filepath.Join(r.dir, entry.File)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	zr, err := gzip.NewReader(io.TeeReader(f, h))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptShard, path, err)
	}
	dec := gob.NewDecoder(zr)
	var hdr shardHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("%w: %s: bad header: %v", ErrCorruptShard, path, err)
	}
	if hdr.Region != entry.Region || hdr.ID != entry.ID {
		return fmt.Errorf("%w: %s holds rack %s/%d, manifest expects %s/%d",
			ErrCorruptShard, path, hdr.Region, hdr.ID, entry.Region, entry.ID)
	}
	for {
		var run fleet.RunSummary
		if err := dec.Decode(&run); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("%w: %s: %v", ErrCorruptShard, path, err)
		}
		if err := fn(&run); err != nil {
			return err
		}
	}
	// Drain the gzip trailer (checksum) and any trailing bytes so the whole
	// file contributes to the hash.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorruptShard, path, err)
	}
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != entry.Digest {
		return fmt.Errorf("%w: %s digests %s, manifest records %s", ErrCorruptShard, path, got, entry.Digest)
	}
	return nil
}
