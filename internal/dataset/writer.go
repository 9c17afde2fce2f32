package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/unitstore"
)

// Writer appends shards to a dataset directory. It is safe for concurrent
// use by the generation workers: each rack's ShardWriter is owned by one
// goroutine, and manifest updates are serialized by the unit store.
type Writer struct {
	st  *unitstore.Store
	man *Manifest      // read under st.View; written only inside st's hooks
	idx map[string]int // shardKey -> index into man.Shards; fixed after Create
}

// Create opens dir for (resumed) generation with cfg. A fresh directory gets
// a manifest listing every expected shard; an existing one is validated —
// the stored config and seed must match cfg (Workers aside), completed
// shards are digest-verified (corrupt or missing ones are demoted to
// pending so they regenerate), and stale temp files are removed. A config
// or seed mismatch returns ErrConfigMismatch rather than mixing shards from
// different generations.
func Create(dir string, cfg fleet.Config) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	norm := cfg.Stored()
	man := &Manifest{}
	st, err := unitstore.Create(layout, dir, man, func() {
		*man = Manifest{FormatVersion: FormatVersion, Config: norm}
		for _, spec := range fleet.BuildRacks(norm) {
			man.Shards = append(man.Shards, ShardEntry{
				Region: spec.Region,
				ID:     spec.ID,
				File:   shardFileName(spec.Region, spec.ID),
			})
		}
	}, func() error {
		if !configsMatch(man.Config, norm) {
			return fmt.Errorf("%w: %s was generated with %s; refusing to mix with %s",
				ErrConfigMismatch, dir, man.Config.Describe(), norm.Describe())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w := &Writer{st: st, man: man, idx: make(map[string]int, len(man.Shards))}
	for i := range man.Shards {
		w.idx[shardKey(man.Shards[i].Region, man.Shards[i].ID)] = i
	}
	return w, nil
}

// Config returns the writer's normalized generation config.
func (w *Writer) Config() (cfg fleet.Config) {
	w.st.View(func() { cfg = w.man.Config })
	return cfg
}

// Done reports whether a rack's shard is already complete (the
// fleet.GenerateStream skip hook).
func (w *Writer) Done(region string, id int) bool {
	i, ok := w.idx[shardKey(region, id)]
	return ok && w.st.Done(i)
}

// Shards returns a copy of the manifest's shard table.
func (w *Writer) Shards() (out []ShardEntry) {
	w.st.View(func() { out = append(out, w.man.Shards...) })
	return out
}

// Progress returns completed and total shard counts.
func (w *Writer) Progress() (done, total int) { return w.st.Progress() }

// Begin opens the shard for one rack. The returned ShardWriter satisfies
// fleet.RackSink: stream each rack-hour with Run, then Commit. Until Commit
// the shard lives in memory, so a killed or cancelled generation leaves
// nothing of it on disk.
func (w *Writer) Begin(meta fleet.RackMeta) (*ShardWriter, error) {
	i, ok := w.idx[shardKey(meta.Region, meta.ID)]
	if !ok {
		return nil, fmt.Errorf("dataset: rack %s/%d not in manifest", meta.Region, meta.ID)
	}
	return newShardWriter(meta.Region, meta.ID, func(p *ShardPayload) error {
		_, err := w.commit(i, p, false)
		return err
	})
}

// commit is the one way a shard reaches the directory, whether generated
// here (ShardWriter.Commit) or uploaded (InstallShard).
func (w *Writer) commit(i int, p *ShardPayload, ifNew bool) (bool, error) {
	return w.st.Commit(i, p.Data, ifNew, func() {
		e := &w.man.Shards[i]
		e.Runs, e.Collected, e.Meta = p.Runs, p.Collected, p.Meta
	})
}

// ShardWriter encodes one rack's runs into the shard wire format — gzip'd
// gob opened by a shardHeader — in memory. A shard is small (a few KB on the
// small preset, under half a MB at paper scale), so buffering costs little
// and lets local generation and distributed workers (EncodeShard) produce and
// land the same bytes the same way.
type ShardWriter struct {
	p    ShardPayload // Region/ID from Begin; the rest filled at Commit
	buf  bytes.Buffer
	zw   *gzip.Writer
	enc  *gob.Encoder
	land func(*ShardPayload) error

	done bool
}

// gzipWriters recycles shard compressors between racks: allocating a flate
// writer's window and hash tables costs more than compressing a small
// shard. Reset makes a recycled writer emit the bytes a new one would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// newShardWriter starts a shard stream (header included) whose sealed payload
// Commit hands to land.
func newShardWriter(region string, id int, land func(*ShardPayload) error) (*ShardWriter, error) {
	sw := &ShardWriter{p: ShardPayload{Region: region, ID: id}, land: land}
	sw.zw = gzipWriters.Get().(*gzip.Writer)
	sw.zw.Reset(&sw.buf)
	sw.enc = gob.NewEncoder(sw.zw)
	if err := sw.enc.Encode(shardHeader{FormatVersion: FormatVersion, Region: region, ID: id}); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return sw, nil
}

// Run appends one rack-hour to the shard.
func (sw *ShardWriter) Run(r fleet.RunSummary) error {
	if sw.done {
		return errShardFinished
	}
	if err := sw.enc.Encode(r); err != nil {
		sw.Abort()
		return fmt.Errorf("dataset: %w", err)
	}
	sw.p.Runs++
	if r.Collected {
		sw.p.Collected++
	}
	return nil
}

// Commit finishes the shard and lands it: for a Writer's shard, durably
// under its final name and complete in the manifest with its digest. meta
// must carry the rack's measured BusyAvgContention.
func (sw *ShardWriter) Commit(meta fleet.RackMeta) error {
	if sw.done {
		return errShardFinished
	}
	err := sw.zw.Close()
	sw.finish()
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	p := sw.p // a copy, so a retained payload does not pin the encoder
	p.Meta, p.Data = meta, sw.buf.Bytes()
	return sw.land(&p)
}

// Abort discards the in-progress shard and refuses a later Run or Commit.
// Nothing of an uncommitted shard exists outside this value, so abandoning a
// ShardWriter without calling it leaks nothing either.
func (sw *ShardWriter) Abort() {
	if !sw.done {
		sw.finish()
	}
}

var errShardFinished = errors.New("dataset: shard writer already finished")

// finish ends the writer and returns its compressor to the pool.
func (sw *ShardWriter) finish() {
	sw.done = true
	gzipWriters.Put(sw.zw)
	sw.zw, sw.enc = nil, nil
}

// ShardPayload is one rack's finished shard away from the dataset directory
// — what a ShardWriter seals and a distributed worker uploads — as the exact
// file bytes plus the commit metadata the manifest records. Workers and the
// local pipeline share the ShardWriter, so installing a payload yields a file
// byte-identical to a locally generated one.
type ShardPayload struct {
	Region string
	ID     int
	// Runs/Collected mirror ShardEntry; Verify cross-checks them against the
	// decoded data.
	Runs      int
	Collected int
	// Meta carries the rack's measured BusyAvgContention (Class unset, as in
	// ShardWriter.Commit).
	Meta fleet.RackMeta
	// Data is the shard file's bytes (gzip'd gob stream).
	Data []byte
}

// Digest returns the sha256 hex of the payload's shard bytes.
func (p *ShardPayload) Digest() string { return fsutil.SHA256(p.Data) }

// Verify structurally validates the payload: the data must be a well-formed
// shard stream whose header and record counts match the declared fields. A
// payload that passes Verify commits exactly as a local generation would.
func (p *ShardPayload) Verify() error {
	runs, collected := 0, 0
	what := fmt.Sprintf("payload for %s/%d", p.Region, p.ID)
	err := decodeShard(bytes.NewReader(p.Data), what, p.Region, p.ID, func(run *fleet.RunSummary) error {
		runs++
		if run.Collected {
			collected++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if runs != p.Runs || collected != p.Collected {
		return fmt.Errorf("%w: payload for %s/%d decodes %d runs (%d collected), declares %d (%d)",
			ErrCorruptShard, p.Region, p.ID, runs, collected, p.Runs, p.Collected)
	}
	return nil
}

// InstallShard durably commits a remotely produced shard: verify, then the
// same commit a local ShardWriter makes. Installing an already-complete
// shard is a no-op returning installed=false — the idempotence that makes
// result redelivery safe: however many times a distributed upload is
// duplicated or replayed, exactly one install mutates the dataset.
func (w *Writer) InstallShard(p *ShardPayload) (installed bool, err error) {
	if err := p.Verify(); err != nil {
		return false, err
	}
	i, ok := w.idx[shardKey(p.Region, p.ID)]
	if !ok {
		return false, fmt.Errorf("dataset: rack %s/%d not in manifest", p.Region, p.ID)
	}
	return w.commit(i, p, true)
}

// Finalize classifies the racks and marks the dataset complete. It refuses
// while shards are pending (resume the generation first) and when every
// recorded rack-hour failed to collect.
func (w *Writer) Finalize() error {
	return w.st.Seal(func() error {
		collected, runs := 0, 0
		metas := make([]fleet.RackMeta, len(w.man.Shards))
		for i := range w.man.Shards {
			metas[i] = w.man.Shards[i].Meta
			collected += w.man.Shards[i].Collected
			runs += w.man.Shards[i].Runs
		}
		if runs > 0 && collected == 0 {
			return fmt.Errorf("dataset: all %d rack-hour runs failed to collect", runs)
		}
		fleet.ClassifyMetas(metas)
		w.man.Racks = metas
		return nil
	})
}
