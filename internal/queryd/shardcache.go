package queryd

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/fleet"
)

// shardCacheBytes budgets the decoded-shard cache, server-wide. A constant,
// not a knob: a paper-preset rack decodes to ~350 KB, so this holds ~90 of
// them, and a store larger than it degrades to the uncached cost plus one
// stat and one LRU insert per shard.
const shardCacheBytes = 32 << 20

// shardRuns is one decoded rack shard as the Reader verified it, shared
// read-only by every request that hits it. It is charged its in-memory
// footprint; ServerRun, BurstRec and HostStackRec are flat, so one level of
// nesting is the lot.
type shardRuns []fleet.RunSummary

func (s shardRuns) size() int64 {
	n := int64(cap(s)) * int64(unsafe.Sizeof(fleet.RunSummary{}))
	for i := range s {
		n += int64(len(s[i].Region)+len(s[i].FailReason)) +
			int64(cap(s[i].ServerRuns))*int64(unsafe.Sizeof(analysis.ServerRun{})) +
			int64(cap(s[i].Bursts))*int64(unsafe.Sizeof(fleet.BurstRec{}))
		if s[i].HostStack != nil {
			n += int64(unsafe.Sizeof(fleet.HostStackRec{}))
		}
	}
	return n
}

type rackKey struct {
	region string
	id     int
}

// cachedSource serves a dataset's runs from the decoded-shard cache. Every
// fill is the wrapped source's own RackRuns — for a *dataset.Reader, the gzip
// CRC and the sha256 against the manifest over the whole file — so nothing
// enters the cache unverified, and a shard is verified in full before its
// first run is delivered. Everything but the run accessors passes through.
type cachedSource struct {
	DatasetSource
	dir     string
	shards  *cache[shardRuns]
	classes map[rackKey]fleet.Class
}

func newCachedSource(dir string, src DatasetSource, shards *cache[shardRuns]) *cachedSource {
	c := &cachedSource{DatasetSource: src, dir: dir, shards: shards, classes: map[rackKey]fleet.Class{}}
	for _, rm := range src.RackMetas() {
		c.classes[rackKey{rm.Region, rm.ID}] = rm.Class
	}
	return c
}

// shard returns one rack's runs, decoding at most once per file state: the
// key is the manifest digest plus the file's size and mtime, from a stat on
// every touch, hit or miss. A shard replaced or rewritten under a running
// server misses, is re-read, and fails the Reader's digest check as it always
// did; a hit serves exactly the bytes that were verified, and only while the
// file still looks like the one they were read from.
func (c *cachedSource) shard(e *dataset.ShardEntry) ([]fleet.RunSummary, error) {
	fi, err := os.Stat(filepath.Join(c.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	key := fmt.Sprintf("%s|%d|%d", e.Digest, fi.Size(), fi.ModTime().UnixNano())
	runs, _, err := c.shards.getOrFill(key, func() (shardRuns, error) {
		return c.DatasetSource.RackRuns(e.Region, e.ID)
	})
	return runs, err
}

// RackRuns returns one rack's runs. The slice is shared: callers must not
// modify it.
func (c *cachedSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	shards := c.Shards()
	for i := range shards {
		if shards[i].Region == region && shards[i].ID == id && c.Complete() {
			return c.shard(&shards[i])
		}
	}
	return c.DatasetSource.RackRuns(region, id) // its error: incomplete, or no such rack
}

func (c *cachedSource) EachRun(fn func(r *fleet.RunSummary, cl fleet.Class) error) (int, error) {
	return c.EachRunCtx(context.Background(), fn)
}

// EachRunCtx is the Reader's walk over cached shards: manifest order, the
// context checked before every shard and every delivered run, racks missing
// from the metadata counted as skipped.
func (c *cachedSource) EachRunCtx(ctx context.Context, fn func(r *fleet.RunSummary, cl fleet.Class) error) (skipped int, err error) {
	if !c.Complete() {
		return c.DatasetSource.EachRunCtx(ctx, fn) // its ErrIncomplete
	}
	shards := c.Shards()
	for i := range shards {
		if err := ctx.Err(); err != nil {
			return skipped, err
		}
		class, ok := c.classes[rackKey{shards[i].Region, shards[i].ID}]
		if !ok {
			skipped += shards[i].Runs
			continue
		}
		runs, err := c.shard(&shards[i])
		for j := 0; j < len(runs) && err == nil; j++ {
			if err = ctx.Err(); err == nil {
				err = fn(&runs[j], class)
			}
		}
		if err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}
