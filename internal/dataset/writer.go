package dataset

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fleet"
	"repro/internal/fsutil"
)

// Writer appends shards to a dataset directory. It is safe for concurrent
// use by the generation workers: each rack's ShardWriter is owned by one
// goroutine, and manifest updates are serialized internally.
type Writer struct {
	dir string

	mu  sync.Mutex
	man *Manifest
	idx map[string]int // shardKey -> index into man.Shards
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	norm := normalizeConfig(cfg)

	var man *Manifest
	if IsDir(dir) {
		var err error
		man, err = readManifest(dir)
		if err != nil {
			return nil, err
		}
		if !configsMatch(man.Config, norm) {
			return nil, fmt.Errorf("%w: %s was generated with %s; refusing to mix with %s",
				ErrConfigMismatch, dir, man.Config.Describe(), norm.Describe())
		}
	} else {
		man = &Manifest{FormatVersion: FormatVersion, Config: norm}
		for _, spec := range fleet.BuildRacks(norm) {
			man.Shards = append(man.Shards, ShardEntry{
				Region: spec.Region,
				ID:     spec.ID,
				File:   shardFileName(spec.Region, spec.ID),
			})
		}
	}

	w := &Writer{dir: dir, man: man, idx: make(map[string]int, len(man.Shards))}
	for i := range man.Shards {
		w.idx[shardKey(man.Shards[i].Region, man.Shards[i].ID)] = i
	}
	if err := w.sweep(); err != nil {
		return nil, err
	}
	// A resumed directory is no longer complete until Finalize runs again
	// (it may have just demoted corrupt shards).
	w.man.Complete = w.man.Complete && w.pending() == 0
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	return w, nil
}

// sweep removes stale temp files and demotes completed shards whose file is
// missing or fails digest verification.
func (w *Writer) sweep() error {
	if err := fsutil.RemoveTempFiles(w.dir); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	for i := range w.man.Shards {
		s := &w.man.Shards[i]
		if !s.Complete {
			continue
		}
		if err := verifyShardFile(filepath.Join(w.dir, s.File), s.Digest); err != nil {
			// Regenerate rather than trust it; keep nothing that could mix
			// a damaged shard into the dataset.
			os.Remove(filepath.Join(w.dir, s.File))
			*s = ShardEntry{Region: s.Region, ID: s.ID, File: s.File}
		}
	}
	return nil
}

// verifyShardFile checks that a shard file hashes to the recorded digest.
func verifyShardFile(path, digest string) error {
	got, err := fsutil.FileSHA256(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptShard, err)
	}
	if got != digest {
		return fmt.Errorf("%w: %s digests %s, manifest records %s", ErrCorruptShard, path, got, digest)
	}
	return nil
}

// Config returns the writer's normalized generation config.
func (w *Writer) Config() fleet.Config {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.Config
}

// Done reports whether a rack's shard is already complete (the
// fleet.GenerateStream skip hook).
func (w *Writer) Done(region string, id int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	i, ok := w.idx[shardKey(region, id)]
	return ok && w.man.Shards[i].Complete
}

// Shards returns a copy of the manifest's shard table.
func (w *Writer) Shards() []ShardEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]ShardEntry(nil), w.man.Shards...)
}

// Progress returns completed and total shard counts.
func (w *Writer) Progress() (done, total int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.man.Shards) - w.pendingLocked(), len(w.man.Shards)
}

func (w *Writer) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pendingLocked()
}

func (w *Writer) pendingLocked() int {
	n := 0
	for i := range w.man.Shards {
		if !w.man.Shards[i].Complete {
			n++
		}
	}
	return n
}

// shardEncoder streams RunSummary records into the shard wire format —
// gzip'd gob opened by a shardHeader — hashing the compressed bytes as they
// are produced. The local temp-file path (ShardWriter) and the in-memory
// path the distributed workers upload (EncodeShard) share it, which is what
// makes a remotely produced shard byte-identical to a local one.
type shardEncoder struct {
	zw   *gzip.Writer
	enc  *gob.Encoder
	hash hash.Hash

	runs      int
	collected int
}

// newShardEncoder starts a shard stream on w (header included).
func newShardEncoder(w io.Writer, region string, id int) (*shardEncoder, error) {
	h := sha256.New()
	zw := gzip.NewWriter(io.MultiWriter(w, h))
	e := &shardEncoder{zw: zw, enc: gob.NewEncoder(zw), hash: h}
	if err := e.enc.Encode(shardHeader{FormatVersion: FormatVersion, Region: region, ID: id}); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return e, nil
}

// Run appends one rack-hour.
func (e *shardEncoder) Run(r fleet.RunSummary) error {
	if err := e.enc.Encode(r); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	e.runs++
	if r.Collected {
		e.collected++
	}
	return nil
}

// Close flushes the gzip stream; the digest is final afterwards.
func (e *shardEncoder) Close() error {
	if err := e.zw.Close(); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// Digest returns the sha256 hex of the compressed shard bytes written so far.
func (e *shardEncoder) Digest() string { return hex.EncodeToString(e.hash.Sum(nil)) }

// Begin opens the shard for one rack. The returned ShardWriter satisfies
// fleet.RackSink: stream each rack-hour with Run, then Commit. Until Commit
// the data lives in a temp file, so a killed generation leaves no
// half-written shard under a final name.
func (w *Writer) Begin(meta fleet.RackMeta) (*ShardWriter, error) {
	w.mu.Lock()
	i, ok := w.idx[shardKey(meta.Region, meta.ID)]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dataset: rack %s/%d not in manifest", meta.Region, meta.ID)
	}
	f, err := os.CreateTemp(w.dir, ".tmp-shard-")
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	enc, err := newShardEncoder(f, meta.Region, meta.ID)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &ShardWriter{w: w, idx: i, f: f, tmp: f.Name(), enc: enc}, nil
}

// ShardWriter streams one rack's runs into its shard file.
type ShardWriter struct {
	w   *Writer
	idx int
	f   *os.File
	tmp string
	enc *shardEncoder

	done bool
}

// Run appends one rack-hour to the shard.
func (sw *ShardWriter) Run(r fleet.RunSummary) error {
	if err := sw.enc.Run(r); err != nil {
		sw.Abort()
		return err
	}
	return nil
}

// Commit finishes the shard: flushes, fsyncs, and closes the file, renames
// it to its final name, fsyncs the directory, and marks it complete in the
// manifest with its digest. meta must carry the rack's measured
// BusyAvgContention.
func (sw *ShardWriter) Commit(meta fleet.RackMeta) error {
	if sw.done {
		return fmt.Errorf("dataset: shard writer already finished")
	}
	if err := sw.enc.Close(); err != nil {
		sw.Abort()
		return err
	}
	if err := fsutil.SyncFile(sw.f); err != nil {
		sw.Abort()
		return fmt.Errorf("dataset: %w", err)
	}
	if err := sw.f.Close(); err != nil {
		sw.done = true
		os.Remove(sw.tmp)
		return fmt.Errorf("dataset: %w", err)
	}
	sw.done = true
	w := sw.w
	w.mu.Lock()
	defer w.mu.Unlock()
	entry := &w.man.Shards[sw.idx]
	if err := os.Rename(sw.tmp, filepath.Join(w.dir, entry.File)); err != nil {
		os.Remove(sw.tmp)
		return fmt.Errorf("dataset: %w", err)
	}
	if err := fsutil.SyncDir(w.dir); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	entry.Runs = sw.enc.runs
	entry.Collected = sw.enc.collected
	entry.Digest = sw.enc.Digest()
	entry.Meta = meta
	entry.Complete = true
	return writeManifest(w.dir, w.man)
}

// Abort discards the in-progress shard: the temp file is closed and removed,
// the manifest untouched. It is idempotent and satisfies fleet.Aborter, so a
// cancelled generation releases every open shard instead of leaking temp
// files until the next resume's sweep.
func (sw *ShardWriter) Abort() {
	if sw.done {
		return
	}
	sw.done = true
	sw.f.Close()
	os.Remove(sw.tmp)
}

// ShardPayload is one rack's shard produced away from the dataset directory
// — by a distributed worker — as the exact file bytes plus the commit
// metadata the manifest records. Because workers and the local pipeline
// share the same encoder, installing a payload yields a file byte-identical
// to a locally generated one.
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
	zr, err := gzip.NewReader(bytes.NewReader(p.Data))
	if err != nil {
		return fmt.Errorf("%w: payload for %s/%d: %v", ErrCorruptShard, p.Region, p.ID, err)
	}
	dec := gob.NewDecoder(zr)
	var hdr shardHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("%w: payload for %s/%d: bad header: %v", ErrCorruptShard, p.Region, p.ID, err)
	}
	if hdr.FormatVersion != FormatVersion || hdr.Region != p.Region || hdr.ID != p.ID {
		return fmt.Errorf("%w: payload header %s/%d (format %d), want %s/%d (format %d)",
			ErrCorruptShard, hdr.Region, hdr.ID, hdr.FormatVersion, p.Region, p.ID, FormatVersion)
	}
	runs, collected := 0, 0
	for {
		var run fleet.RunSummary
		if err := dec.Decode(&run); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("%w: payload for %s/%d: %v", ErrCorruptShard, p.Region, p.ID, err)
		}
		if run.Region != p.Region || run.RackID != p.ID {
			return fmt.Errorf("%w: payload for %s/%d holds run for %s/%d",
				ErrCorruptShard, p.Region, p.ID, run.Region, run.RackID)
		}
		runs++
		if run.Collected {
			collected++
		}
	}
	if runs != p.Runs || collected != p.Collected {
		return fmt.Errorf("%w: payload for %s/%d decodes %d runs (%d collected), declares %d (%d)",
			ErrCorruptShard, p.Region, p.ID, runs, collected, p.Runs, p.Collected)
	}
	return nil
}

// InstallShard durably commits a remotely produced shard: verify, write the
// bytes under a temp name, fsync, rename, fsync the directory, and mark the
// manifest entry complete. Installing an already-complete shard is a no-op
// returning installed=false — the idempotence that makes result redelivery
// safe: however many times a distributed upload is duplicated or replayed,
// exactly one install mutates the dataset.
func (w *Writer) InstallShard(p *ShardPayload) (installed bool, err error) {
	if err := p.Verify(); err != nil {
		return false, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	i, ok := w.idx[shardKey(p.Region, p.ID)]
	if !ok {
		return false, fmt.Errorf("dataset: rack %s/%d not in manifest", p.Region, p.ID)
	}
	entry := &w.man.Shards[i]
	if entry.Complete {
		return false, nil
	}
	if err := fsutil.WriteFileAtomic(w.dir, entry.File, p.Data); err != nil {
		return false, fmt.Errorf("dataset: %w", err)
	}
	entry.Runs = p.Runs
	entry.Collected = p.Collected
	entry.Digest = p.Digest()
	entry.Meta = p.Meta
	entry.Complete = true
	if err := writeManifest(w.dir, w.man); err != nil {
		return false, err
	}
	return true, nil
}

// Finalize classifies the racks and marks the dataset complete. It refuses
// while shards are pending (resume the generation first) and when every
// recorded rack-hour failed to collect.
func (w *Writer) Finalize() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := w.pendingLocked(); n > 0 {
		return fmt.Errorf("%w: %d of %d shards pending", ErrIncomplete, n, len(w.man.Shards))
	}
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
	w.man.Complete = true
	return writeManifest(w.dir, w.man)
}
