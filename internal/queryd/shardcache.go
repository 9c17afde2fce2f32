package queryd

import (
	"context"
	"encoding/json"
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

// encodeRun is the one place a RunSummary becomes JSON, whether the bytes go
// into the cache or straight to a client; the NDJSON wrapper around them is
// appendLine's. A variable so that a test can count the calls.
var encodeRun = func(r *fleet.RunSummary) ([]byte, error) { return json.Marshal(r) }

// shardRuns is one decoded rack shard as the Reader verified it, with the
// JSON of each run beside it, shared read-only by every request that hits it.
// The rack's class is not in the bytes: it belongs to the dataset's RackMetas,
// and two datasets naming one shard digest may class it differently.
type shardRuns struct {
	runs  []fleet.RunSummary
	lines [][]byte // lines[i] is encodeRun(&runs[i])
}

// encodeShard pairs runs with their encodings; a run JSON cannot express
// (a NaN) fails the whole shard here, before any of it is served.
func encodeShard(runs []fleet.RunSummary) (s shardRuns, err error) {
	s = shardRuns{runs: runs, lines: make([][]byte, len(runs))}
	for i := range runs {
		if s.lines[i], err = encodeRun(&runs[i]); err != nil {
			return shardRuns{}, fmt.Errorf("queryd: encode %s/%d hour %d: %w", runs[i].Region, runs[i].RackID, runs[i].Hour, err)
		}
	}
	return s, nil
}

// size is the in-memory footprint charged to the budget. ServerRun, BurstRec
// and HostStackRec are flat, so one level of nesting is the lot.
func (s shardRuns) size() int64 {
	n := int64(cap(s.runs))*int64(unsafe.Sizeof(fleet.RunSummary{})) + int64(cap(s.lines))*int64(unsafe.Sizeof([]byte{}))
	for i := range s.runs {
		r := &s.runs[i]
		n += int64(len(r.Region)+len(r.FailReason)+cap(s.lines[i])) +
			int64(cap(r.ServerRuns))*int64(unsafe.Sizeof(analysis.ServerRun{})) +
			int64(cap(r.Bursts))*int64(unsafe.Sizeof(fleet.BurstRec{}))
		if r.HostStack != nil {
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

// shard returns one rack's runs and their JSON, decoding and encoding at most
// once per file state: the key is the manifest digest plus the file's size and
// mtime, from a stat on every touch, hit or miss. A shard replaced or
// rewritten under a running server misses, is re-read, and fails the Reader's
// digest check as it always did; a hit serves exactly the bytes that were
// verified, and only while the file still looks like the one they were read
// from.
func (c *cachedSource) shard(e *dataset.ShardEntry) (shardRuns, error) {
	fi, err := os.Stat(filepath.Join(c.dir, e.File))
	if err != nil {
		return shardRuns{}, fmt.Errorf("dataset: %w", err)
	}
	key := fmt.Sprintf("%s|%d|%d", e.Digest, fi.Size(), fi.ModTime().UnixNano())
	sh, _, err := c.shards.getOrFill(key, func() (shardRuns, error) {
		runs, err := c.DatasetSource.RackRuns(e.Region, e.ID)
		if err != nil {
			return shardRuns{}, err
		}
		return encodeShard(runs)
	})
	return sh, err
}

// RackRuns returns one rack's runs. The slice is shared: callers must not
// modify it.
func (c *cachedSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	sh, err := rackLines(c, region, id)
	return sh.runs, err
}

func (c *cachedSource) EachRun(fn func(r *fleet.RunSummary, cl fleet.Class) error) (int, error) {
	return c.EachRunCtx(context.Background(), fn)
}

func (c *cachedSource) EachRunCtx(ctx context.Context, fn func(r *fleet.RunSummary, cl fleet.Class) error) (skipped int, err error) {
	if !c.Complete() {
		return c.DatasetSource.EachRunCtx(ctx, fn) // its ErrIncomplete
	}
	return c.walk(ctx, &runFilter{}, func(sh shardRuns, i int, cl fleet.Class) error { return fn(&sh.runs[i], cl) })
}

// walk is the Reader's walk over cached shards, narrowed to the runs f
// matches: manifest order, the context checked before every shard and every
// run, racks missing from the metadata counted as skipped. A shard f rules out
// whole is passed over before its stat: it costs nothing and, corrupt, fails
// nothing.
func (c *cachedSource) walk(ctx context.Context, f *runFilter, fn func(sh shardRuns, i int, cl fleet.Class) error) (skipped int, err error) {
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
		if !f.shard(shards[i].Region, shards[i].ID, class) {
			continue
		}
		sh, err := c.shard(&shards[i])
		for j := 0; j < len(sh.runs) && err == nil; j++ {
			if err = ctx.Err(); err == nil && f.match(&sh.runs[j], class) {
				err = fn(sh, j, class)
			}
		}
		if err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// eachLine walks src and hands fn the JSON of every run f matches: the cached
// bytes where src keeps them, encodeRun's, made as the walk goes, where it
// does not (CacheBytes < 0, a test's own opener).
func eachLine(ctx context.Context, src DatasetSource, f *runFilter, fn func(cl fleet.Class, line []byte) error) error {
	if c, ok := src.(*cachedSource); ok && c.Complete() {
		_, err := c.walk(ctx, f, func(sh shardRuns, i int, cl fleet.Class) error { return fn(cl, sh.lines[i]) })
		return err
	}
	_, err := src.EachRunCtx(ctx, func(r *fleet.RunSummary, cl fleet.Class) error {
		if !f.match(r, cl) {
			return nil
		}
		line, err := encodeRun(r)
		if err != nil {
			return err
		}
		return fn(cl, line)
	})
	return err
}

// rackLines is eachLine for one rack, whole: the cached shard, or a fresh
// decode encoded before any of it is written.
func rackLines(src DatasetSource, region string, id int) (shardRuns, error) {
	if c, ok := src.(*cachedSource); ok {
		shards := c.Shards()
		for i := range shards {
			if shards[i].Region == region && shards[i].ID == id && c.Complete() {
				return c.shard(&shards[i])
			}
		}
		src = c.DatasetSource // for its error: incomplete, or no such rack
	}
	runs, err := src.RackRuns(region, id)
	if err != nil {
		return shardRuns{}, err
	}
	return encodeShard(runs)
}
