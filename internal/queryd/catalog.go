package queryd

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/sweep"
)

// DatasetSource is the streaming view queryd serves a dataset through. It
// is exactly the read surface *dataset.Reader exposes — the experiments'
// Source interface plus single-rack access, context-threaded walks, shard
// status, and the store fingerprint. The server only ever holds this
// interface, so a handler cannot materialize a whole dataset even by
// accident: a request holds one rack at a time by construction — usually the
// decoded-shard cache's shared, verified copy (cachedSource), so the runs any
// implementation hands out are read-only. Tests substitute instrumented ones.
type DatasetSource interface {
	Config() fleet.Config
	RackMetas() []fleet.RackMeta
	EachRun(fn func(r *fleet.RunSummary, c fleet.Class) error) (skipped int, err error)
	EachRunCtx(ctx context.Context, fn func(r *fleet.RunSummary, c fleet.Class) error) (skipped int, err error)
	RackRuns(region string, id int) ([]fleet.RunSummary, error)
	Shards() []dataset.ShardEntry
	Complete() bool
	Progress() (done, total int)
	StoreDigest() (string, error)
}

// DatasetInfo is one catalog row for a dataset directory.
type DatasetInfo struct {
	// Name is the directory's path relative to the catalog root, always
	// forward-slashed.
	Name string `json:"name"`
	// Complete reports whether generation (incl. Finalize) finished;
	// incomplete datasets are listed but not queryable.
	Complete    bool `json:"complete"`
	ShardsDone  int  `json:"shards_done"`
	ShardsTotal int  `json:"shards_total"`
	Racks       int  `json:"racks"`
	// Config is fleet.Config.Describe of the generation config: seed, shape,
	// fidelity, switch override, and whether the host-stack instrument was
	// armed ("hoststack on" — the "hoststack" render needs its series). The
	// per-dataset endpoint carries the structured config.
	Config string `json:"config"`
	// Digest is the store fingerprint (sha256 over per-shard digests);
	// empty until complete. It doubles as the ETag base for every response
	// derived from this dataset.
	Digest string `json:"digest,omitempty"`
}

// SweepInfo is one catalog row for a sweep result directory.
type SweepInfo struct {
	Name        string `json:"name"`
	SpecName    string `json:"spec_name,omitempty"`
	Complete    bool   `json:"complete"`
	PointsDone  int    `json:"points_done"`
	PointsTotal int    `json:"points_total"`
	// Config is fleet.Config.Describe of the sweep's base fleet config.
	Config string `json:"config"`
	// ResultDigest is the sweep's sealed fingerprint; empty until complete.
	ResultDigest string `json:"result_digest,omitempty"`
}

// datasetEntry caches one discovered dataset: the shared Reader plus the
// manifest mtime it was opened at, so an updated directory (a resumed
// generation that completed) is re-opened instead of served stale.
type datasetEntry struct {
	info   DatasetInfo
	src    DatasetSource
	mtime  time.Time
	opened time.Time
}

type sweepEntry struct {
	info   SweepInfo
	points []sweep.PointEntry // the manifest's: file and digest of every point
	mtime  time.Time
}

// Catalog discovers datasets and sweep stores under a root directory by
// their manifests and caches open readers. Discovery is re-run on demand
// (every Refresh call), but a cached entry is reused as long as its
// manifest file is unchanged — opening is cheap (one JSON read), so the
// cache exists to share Readers across requests, not to avoid I/O.
type Catalog struct {
	root string

	// openDataset is the Reader constructor. New wraps it in the decoded-shard
	// cache; tests swap in instrumented sources, which therefore see no cache.
	openDataset func(dir string) (DatasetSource, error)

	mu       sync.Mutex
	datasets map[string]*datasetEntry
	sweeps   map[string]*sweepEntry
}

// NewCatalog returns a catalog rooted at root.
func NewCatalog(root string) *Catalog {
	return &Catalog{
		root: root,
		openDataset: func(dir string) (DatasetSource, error) {
			return dataset.Open(dir)
		},
		datasets: make(map[string]*datasetEntry),
		sweeps:   make(map[string]*sweepEntry),
	}
}

// Refresh walks the root and reconciles the entry caches with what is on
// disk. It returns the catalog listing, sorted by name.
func (c *Catalog) Refresh() ([]DatasetInfo, []SweepInfo, error) {
	foundDS := map[string]storeDir{}
	foundSW := map[string]storeDir{}
	err := filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A vanished or unreadable subtree must not take the catalog
			// down; skip it.
			if d != nil && d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if !d.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(c.root, path)
		if rerr != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if mtime, ok := manifestMtime(path, dataset.ManifestName); ok {
			foundDS[name] = storeDir{path, mtime}
			return fs.SkipDir // don't descend into shard files
		}
		if mtime, ok := manifestMtime(path, sweep.ManifestName); ok {
			foundSW[name] = storeDir{path, mtime}
			return fs.SkipDir
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("queryd: catalog walk: %w", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for name := range c.datasets {
		if _, ok := foundDS[name]; !ok {
			delete(c.datasets, name)
		}
	}
	for name := range c.sweeps {
		if _, ok := foundSW[name]; !ok {
			delete(c.sweeps, name)
		}
	}
	var dss []DatasetInfo
	for name, d := range foundDS {
		e, err := c.datasetLocked(name, d)
		if err != nil {
			// Torn or foreign manifest: skip the entry rather than failing
			// the whole catalog.
			continue
		}
		dss = append(dss, e.info)
	}
	var sws []SweepInfo
	for name, d := range foundSW {
		e, err := c.sweepLocked(name, d)
		if err != nil {
			continue
		}
		sws = append(sws, e.info)
	}
	sort.Slice(dss, func(a, b int) bool { return dss[a].Name < dss[b].Name })
	sort.Slice(sws, func(a, b int) bool { return sws[a].Name < sws[b].Name })
	return dss, sws, nil
}

// Dataset resolves a catalog name to its shared reader, re-validating the
// cached entry against the manifest's mtime.
func (c *Catalog) Dataset(name string) (*datasetEntry, error) {
	dir, err := c.dirFor(name)
	if err != nil {
		return nil, err
	}
	mtime, ok := manifestMtime(dir, dataset.ManifestName)
	if !ok {
		return nil, fmt.Errorf("no dataset %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.datasetLocked(name, storeDir{dir, mtime})
}

// Sweep resolves a catalog name to its sweep manifest info.
func (c *Catalog) Sweep(name string) (*sweepEntry, string, error) {
	dir, err := c.dirFor(name)
	if err != nil {
		return nil, "", err
	}
	mtime, ok := manifestMtime(dir, sweep.ManifestName)
	if !ok {
		return nil, "", fmt.Errorf("no sweep %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.sweepLocked(name, storeDir{dir, mtime})
	return e, dir, err
}

// dirFor maps a catalog name back to a directory under the root, refusing
// escapes.
func (c *Catalog) dirFor(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("empty name")
	}
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("invalid name %q", name)
	}
	return filepath.Join(c.root, clean), nil
}

func (c *Catalog) datasetLocked(name string, d storeDir) (*datasetEntry, error) {
	if e, ok := c.datasets[name]; ok && e.mtime.Equal(d.mtime) {
		return e, nil
	}
	src, err := c.openDataset(d.dir)
	if err != nil {
		return nil, err
	}
	done, total := src.Progress()
	info := DatasetInfo{
		Name:        name,
		Complete:    src.Complete(),
		ShardsDone:  done,
		ShardsTotal: total,
		Racks:       len(src.RackMetas()),
		Config:      src.Config().Describe(),
	}
	if info.Complete {
		if info.Digest, err = src.StoreDigest(); err != nil {
			return nil, err
		}
	}
	e := &datasetEntry{info: info, src: src, mtime: d.mtime, opened: time.Now()}
	c.datasets[name] = e
	return e, nil
}

func (c *Catalog) sweepLocked(name string, d storeDir) (*sweepEntry, error) {
	if e, ok := c.sweeps[name]; ok && e.mtime.Equal(d.mtime) {
		return e, nil
	}
	man, err := sweep.Inspect(d.dir)
	if err != nil {
		return nil, err
	}
	done, total := man.Progress()
	e := &sweepEntry{
		info: SweepInfo{
			Name:         name,
			SpecName:     man.Name,
			Complete:     man.Complete,
			PointsDone:   done,
			PointsTotal:  total,
			Config:       man.Fleet.Describe(),
			ResultDigest: man.ResultDigest,
		},
		points: man.Points,
		mtime:  d.mtime,
	}
	c.sweeps[name] = e
	return e, nil
}

// storeDir is a store directory with its manifest's mtime at the stat that
// found it.
type storeDir struct {
	dir   string
	mtime time.Time
}

// manifestMtime is the one stat a lookup makes: ok when dir holds a store
// whose manifest is the named regular file (dataset.IsDir's and
// sweep.IsDir's test), with the manifest's mtime.
func manifestMtime(dir, file string) (mtime time.Time, ok bool) {
	fi, err := os.Stat(filepath.Join(dir, file))
	if err != nil || !fi.Mode().IsRegular() {
		return time.Time{}, false
	}
	return fi.ModTime(), true
}
