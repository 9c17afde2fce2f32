package dataset

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
)

// tinyConfig keeps generation fast enough to run several times per test
// binary while exercising both regions, multiple racks, and multiple hours.
func tinyConfig() fleet.Config {
	c := fleet.SmallConfig()
	c.RacksPerRegion = 3
	c.ServersPerRack = 12
	c.Hours = []int{2, 6}
	c.Buckets = 200
	c.Workers = 2
	return c
}

// The tiny store is generated once per test binary, with one worker so the
// Workers-4 run of TestGenerateDirIgnoresWorkers has something to differ from;
// tests work on copies (tinyDir) and compare against its canonical digest.
var (
	tinyOnce sync.Once
	tinyRoot string // pristine store; TestMain removes it
	tinyWant string // its Dataset().Digest()
	tinyRuns int
	tinyErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if tinyRoot != "" {
		os.RemoveAll(tinyRoot)
	}
	os.Exit(code)
}

func tinyFixture(t *testing.T) string {
	t.Helper()
	tinyOnce.Do(func() {
		if tinyRoot, tinyErr = os.MkdirTemp("", "dataset-fixture-"); tinyErr != nil {
			return
		}
		cfg := tinyConfig()
		cfg.Workers = 1
		var r *Reader
		if r, tinyErr = GenerateDir(context.Background(), tinyRoot, cfg, nil); tinyErr != nil {
			return
		}
		var ds *fleet.Dataset
		if ds, tinyErr = r.Dataset(); tinyErr != nil {
			return
		}
		tinyRuns = len(ds.Runs)
		tinyWant, tinyErr = ds.Digest()
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyRoot
}

// tinyDir returns a private copy of the tiny store for a test to read or
// damage.
func tinyDir(t *testing.T) string {
	t.Helper()
	src := tinyFixture(t)
	dir := filepath.Join(t.TempDir(), "ds")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// tinyDigest is the canonical digest every finished tiny store must have.
func tinyDigest(t *testing.T) string {
	t.Helper()
	tinyFixture(t)
	return tinyWant
}

func digestOf(t *testing.T, ds *fleet.Dataset) string {
	t.Helper()
	d, err := ds.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rackSlot is the reference sink: one rack's results straight from
// fleet.GenerateStream, never through gzip or gob.
type rackSlot struct {
	meta fleet.RackMeta
	runs []fleet.RunSummary
}

func (s *rackSlot) Run(r fleet.RunSummary) error  { s.runs = append(s.runs, r); return nil }
func (s *rackSlot) Commit(m fleet.RackMeta) error { s.meta = m; return nil }

// TestGenerateDirMatchesStream holds the shard codec to a reference that
// never touched it: the store's canonical digest equals the digest of the
// runs a plain sink collected from the same generation stream.
func TestGenerateDirMatchesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	specs := fleet.BuildRacks(cfg)
	slots := make([]rackSlot, len(specs))
	idx := make(map[string]int, len(specs))
	for i := range specs {
		idx[shardKey(specs[i].Region, specs[i].ID)] = i
	}
	err := fleet.GenerateStream(context.Background(), cfg, fleet.StreamOpts{
		Begin: func(m fleet.RackMeta) (fleet.RackSink, error) {
			return &slots[idx[shardKey(m.Region, m.ID)]], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &fleet.Dataset{}
	for i := range slots {
		want.Racks = append(want.Racks, slots[i].meta)
		want.Runs = append(want.Runs, slots[i].runs...)
	}
	fleet.ClassifyMetas(want.Racks)

	r, err := Open(tinyDir(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete() {
		t.Fatal("generated dataset not complete")
	}
	ds, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got, wantD := digestOf(t, ds), digestOf(t, want); got != wantD {
		t.Errorf("sharded dataset digest %s != streamed in-memory digest %s", got, wantD)
	}
	if done, total := r.Progress(); done != total || total != len(specs) {
		t.Errorf("progress %d/%d, want %d complete shards", done, total, len(specs))
	}

	// Streaming accessors agree with the materialized view.
	var streamed int
	skipped, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { streamed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || streamed != len(want.Runs) {
		t.Errorf("EachRun streamed %d (skipped %d), want %d", streamed, skipped, len(want.Runs))
	}
	runs, err := r.RackRuns(fleet.RegA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(slots[0].runs) {
		t.Errorf("RackRuns returned %d runs, want %d", len(runs), len(slots[0].runs))
	}
}

// TestGenerateDirIgnoresWorkers pins that there is one way a directory gets
// written: worker count changes completion order only, so two generations
// agree on every file, manifest included. Equality alone cannot see a leak
// both runs share, so the shard table is also held to measured metadata only:
// a class there (classes belong to Manifest.Racks) is what made a store saved
// from already-classified metadata differ from a generated one.
func TestGenerateDirIgnoresWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	one := tinyFixture(t)
	cfg := tinyConfig()
	cfg.Workers = 4
	four := filepath.Join(t.TempDir(), "ds")
	r, err := GenerateDir(context.Background(), four, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadDir(one)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(four)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("workers=4 wrote %d files, workers=1 %d", len(got), len(want))
	}
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(one, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(four, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between workers=1 and workers=4", e.Name())
		}
	}
	for _, s := range r.Shards() {
		if s.Meta.Class != 0 {
			t.Errorf("shard entry %s/%d records class %v; classification belongs to Manifest.Racks", s.Region, s.ID, s.Meta.Class)
		}
	}
}

// interruptAfter aborts a generation after n shards commit, simulating a
// kill mid-run (with one additional shard left dangling as a temp file, the
// worst on-disk state a kill can leave).
type interruptErr struct{ error }

func TestInterruptedResumeIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	dir := filepath.Join(t.TempDir(), "ds")

	// Phase 1: "crash" after two shards are committed.
	w, err := Create(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	committed := 0
	stop := errors.New("simulated kill")
	err = fleet.GenerateStream(context.Background(), cfg, fleet.StreamOpts{
		Skip: w.Done,
		Begin: func(meta fleet.RackMeta) (fleet.RackSink, error) {
			mu.Lock()
			defer mu.Unlock()
			if committed >= 2 {
				return nil, interruptErr{stop}
			}
			committed++
			return w.Begin(meta)
		},
	})
	if err == nil || !errors.As(err, &interruptErr{}) {
		t.Fatalf("simulated interrupt did not surface: %v", err)
	}
	// Leave a partial shard temp file behind, as a kill mid-write would.
	if f, err := os.CreateTemp(dir, ".tmp-shard-"); err == nil {
		f.WriteString("partial garbage")
		f.Close()
	}
	rdr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rdr.Complete() {
		t.Fatal("interrupted dataset claims to be complete")
	}
	if _, err := rdr.Dataset(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("reading an incomplete dataset: err = %v, want ErrIncomplete", err)
	}
	done, total := rdr.Progress()
	if done != 2 || total != 2*cfg.RacksPerRegion {
		t.Fatalf("progress after interrupt = %d/%d, want 2/%d", done, total, 2*cfg.RacksPerRegion)
	}

	// Phase 2: resume with the same flags. Completed shards must be skipped
	// (counted via fresh progress events), the temp file swept, and the
	// final digest must equal an uninterrupted run's.
	var regenerated int
	r, err := GenerateDir(context.Background(), dir, cfg, func(Progress) { regenerated++ })
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*cfg.RacksPerRegion - 2; regenerated != want {
		t.Errorf("resume regenerated %d shards, want %d (2 were already complete)", regenerated, want)
	}
	ds, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, ds), tinyDigest(t); got != want {
		t.Errorf("resumed dataset digest %s != uninterrupted digest %s", got, want)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(matches) != 0 {
		t.Errorf("temp files survived resume: %v", matches)
	}
}

func TestResumeRefusesMismatchedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	dir := tinyDir(t)

	seed := cfg
	seed.Seed = cfg.Seed + 1
	if _, err := Create(dir, seed); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("different seed: err = %v, want ErrConfigMismatch", err)
	}
	buckets := cfg
	buckets.Buckets = cfg.Buckets * 2
	if _, err := Create(dir, buckets); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("different buckets: err = %v, want ErrConfigMismatch", err)
	}
	// Workers is scheduling-only and must not block a resume on a machine
	// with a different core count.
	workers := cfg
	workers.Workers = cfg.Workers + 7
	if _, err := Create(dir, workers); err != nil {
		t.Errorf("different workers blocked resume: %v", err)
	}
	// Fidelity changes the engine, so mixing hybrid shards into a
	// full-fidelity dataset (or vice versa) must be refused: the manifest
	// records the fidelity and the commit path compares it.
	hybrid := cfg
	hybrid.Fidelity = fleet.FidelityHybrid
	if _, err := Create(dir, hybrid); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("hybrid resume of full dataset: err = %v, want ErrConfigMismatch", err)
	}
	// Spelling full explicitly must stay equivalent to the legacy zero value.
	full := cfg
	full.Fidelity = fleet.FidelityFull
	if _, err := Create(dir, full); err != nil {
		t.Errorf("explicit full fidelity blocked resume: %v", err)
	}
	// HostStack changes what shards carry, so a mixed-knob resume must be
	// refused — and the message must name the knob so the operator knows
	// which flag to flip.
	hs := cfg
	hs.HostStack = true
	_, err := Create(dir, hs)
	if !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("hoststack resume of plain dataset: err = %v, want ErrConfigMismatch", err)
	} else if !strings.Contains(err.Error(), "hoststack") {
		t.Errorf("mismatch message does not name the hoststack knob: %v", err)
	}
}

func TestCorruptShardIsRegenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	dir := tinyDir(t)
	// Flip bytes in one shard.
	path := filepath.Join(dir, shardFileName(fleet.RegB, 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The reader must refuse the damaged shard.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RackRuns(fleet.RegB, 1); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("reading corrupt shard: err = %v, want ErrCorruptShard", err)
	}
	// Resume demotes it and regenerates only that shard.
	var regenerated []string
	rr, err := GenerateDir(context.Background(), dir, cfg, func(p Progress) {
		regenerated = append(regenerated, fmt.Sprintf("%s/%d", p.Region, p.ID))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(regenerated) != 1 || regenerated[0] != fmt.Sprintf("%s/1", fleet.RegB) {
		t.Errorf("regenerated %v, want exactly [RegB/1]", regenerated)
	}
	ds, err := rr.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, ds), tinyDigest(t); got != want {
		t.Errorf("repaired dataset digest %s != clean digest %s", got, want)
	}
}

func TestEachRunCountsMissingMetadata(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	dir := tinyDir(t)
	// Degrade the manifest: drop one rack from the metadata, as a partially
	// written or hand-damaged dataset would.
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	var dropped int
	for i := range man.Racks {
		if man.Racks[i].Region == fleet.RegA && man.Racks[i].ID == 0 {
			man.Racks = append(man.Racks[:i], man.Racks[i+1:]...)
			break
		}
	}
	for i := range man.Shards {
		if man.Shards[i].Region == fleet.RegA && man.Shards[i].ID == 0 {
			dropped = man.Shards[i].Runs
		}
	}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	skipped, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { streamed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || skipped != dropped {
		t.Errorf("skipped %d runs, want %d (the dropped rack's)", skipped, dropped)
	}
	if streamed+skipped != tinyRuns {
		t.Errorf("streamed %d + skipped %d != total %d", streamed, skipped, tinyRuns)
	}
}

// TestTruncatedShardIsCorrupt covers a crash or partial copy that cut a
// shard file mid-gzip-stream: the reader must surface ErrCorruptShard, not
// silently deliver a prefix of the rack's runs, and a resume must repair it.
func TestTruncatedShardIsCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	cfg := tinyConfig()
	dir := tinyDir(t)
	path := filepath.Join(dir, shardFileName(fleet.RegA, 1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-stream — past the gzip header so decoding starts fine and the
	// damage only shows while streaming runs.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RackRuns(fleet.RegA, 1); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("reading truncated shard: err = %v, want ErrCorruptShard", err)
	}
	if _, err := r.Dataset(); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("materializing with truncated shard: err = %v, want ErrCorruptShard", err)
	}
	// Other shards stay readable: the damage is contained.
	if _, err := r.RackRuns(fleet.RegA, 0); err != nil {
		t.Errorf("healthy shard unreadable after sibling truncation: %v", err)
	}
	// Resume regenerates exactly the truncated shard, back to byte identity.
	rr, err := GenerateDir(context.Background(), dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := rr.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestOf(t, ds), tinyDigest(t); got != want {
		t.Errorf("repaired dataset digest %s != clean digest %s", got, want)
	}
}

// TestZeroLengthShardIsCorrupt covers the classic crash artifact — an empty
// file where a shard should be (created but never written, or lost to a
// non-durable rename). Zero bytes is not even a gzip header, and the reader
// must classify it as corruption rather than an I/O oddity.
func TestZeroLengthShardIsCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	dir := tinyDir(t)
	path := filepath.Join(dir, shardFileName(fleet.RegB, 0))
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RackRuns(fleet.RegB, 0); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("reading zero-length shard: err = %v, want ErrCorruptShard", err)
	}
	if _, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { return nil }); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("EachRun over zero-length shard: err = %v, want ErrCorruptShard", err)
	}
}

// TestShardRunOfAnotherRackIsCorrupt: a shard whose header names its rack
// but one of whose runs names another is corrupt to the reader, as it is to
// Verify, even under a manifest whose digest matches the file.
func TestShardRunOfAnotherRackIsCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	dir := tinyDir(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := r.RackRuns(fleet.RegA, 1)
	if err != nil || len(runs) == 0 {
		t.Fatalf("RackRuns: %d runs, err %v", len(runs), err)
	}
	var p *ShardPayload
	sw, err := newShardWriter(fleet.RegA, 1, func(sp *ShardPayload) error { p = sp; return nil })
	if err != nil {
		t.Fatal(err)
	}
	runs[len(runs)-1].RackID = 2
	for _, run := range runs {
		if err := sw.Run(run); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(fleet.RackMeta{Region: fleet.RegA, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("Verify: err = %v, want ErrCorruptShard", err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range man.Shards {
		if e := &man.Shards[i]; e.Region == fleet.RegA && e.ID == 1 {
			if err := os.WriteFile(filepath.Join(dir, e.File), p.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			e.Digest = p.Digest()
		}
	}
	if err := writeManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if r, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RackRuns(fleet.RegA, 1); !errors.Is(err, ErrCorruptShard) {
		t.Errorf("RackRuns over a shard holding another rack's run: err = %v, want ErrCorruptShard", err)
	}
}

// FuzzShardPayload feeds arbitrary bytes to the one shard decoder, through
// Verify: it must never panic, and every refusal must be ErrCorruptShard.
func FuzzShardPayload(f *testing.F) {
	cfg := tinyConfig()
	cfg.RacksPerRegion, cfg.ServersPerRack, cfg.Hours, cfg.Buckets = 1, 4, []int{2}, 100
	p, err := EncodeShard(context.Background(), cfg, fleet.RegA, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(p.Data)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(p.Data)
	f.Add(p.Data[:len(p.Data)/2])
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := *p
		q.Data = data
		if err := q.Verify(); err != nil && !errors.Is(err, ErrCorruptShard) {
			t.Errorf("Verify refused with %v, not ErrCorruptShard", err)
		}
	})
}

// TestMissingShardFileErrors pins the non-corruption failure: a shard file
// deleted out from under a complete manifest is an I/O error, not
// ErrCorruptShard — the distinction routes "regenerate" vs "look at your
// filesystem" messaging in the tools.
func TestMissingShardFileErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	dir := tinyDir(t)
	if err := os.Remove(filepath.Join(dir, shardFileName(fleet.RegA, 0))); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RackRuns(fleet.RegA, 0)
	if err == nil {
		t.Fatal("reading missing shard succeeded")
	}
	if errors.Is(err, ErrCorruptShard) {
		t.Errorf("missing file reported as corruption: %v", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file error %v does not wrap os.ErrNotExist", err)
	}
}

// TestOpenRefusesRegularFile pins the one message every tool prints when
// handed a single-file dataset from before the sharded store.
func TestOpenRefusesRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.gob.gz")
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), "single-file datasets are no longer read; regenerate with `fleetgen -o DIR`") {
		t.Errorf("Open(regular file): err = %v, want the regeneration message", err)
	}
}
