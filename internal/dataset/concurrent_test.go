package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fleet"
)

// walkDigest hashes one full EachRun walk: every run's JSON in delivery
// order plus its class. Two walks over the same dataset must digest
// identically.
func walkDigest(t *testing.T, r *Reader) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	_, err := r.EachRun(func(run *fleet.RunSummary, c fleet.Class) error {
		h.Write([]byte{byte(c)})
		return enc.Encode(run)
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConcurrentShardWalks proves a single shared Reader is safe under
// parallel shard walks — the invariant the query service rides on when it
// serves every client of a dataset from one cached Reader. Run with -race.
func TestConcurrentShardWalks(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	r, err := Open(tinyDir(t))
	if err != nil {
		t.Fatal(err)
	}
	want := walkDigest(t, r)

	const walkers = 8
	digests := make([]string, walkers)
	var wg sync.WaitGroup
	for i := 0; i < walkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := sha256.New()
			enc := json.NewEncoder(h)
			// Interleave full walks with single-rack reads and metadata
			// accessors — the mix a busy query service produces.
			if i%2 == 0 {
				if _, err := r.RackRuns("RegA", 0); err != nil {
					t.Error(err)
					return
				}
			}
			_ = r.RackMetas()
			_ = r.Config()
			if _, err := r.StoreDigest(); err != nil {
				t.Error(err)
				return
			}
			_, err := r.EachRunCtx(context.Background(), func(run *fleet.RunSummary, c fleet.Class) error {
				h.Write([]byte{byte(c)})
				return enc.Encode(run)
			})
			if err != nil {
				t.Error(err)
				return
			}
			digests[i] = hex.EncodeToString(h.Sum(nil))
		}(i)
	}
	wg.Wait()
	for i, d := range digests {
		if d != want {
			t.Errorf("walker %d digest %s, want %s (concurrent walks are not isolated)", i, d, want)
		}
	}
}

// TestEachRunCtxCancellation proves a cancelled context abandons the walk
// mid-stream with ctx.Err() instead of reading the dataset to the end.
func TestEachRunCtxCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	r, err := Open(tinyDir(t))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if _, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	_, err = r.EachRunCtx(ctx, func(*fleet.RunSummary, fleet.Class) error {
		delivered++
		if delivered == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= total {
		t.Fatalf("delivered %d of %d runs after cancellation — walk was not abandoned", delivered, total)
	}
}

// TestStoreDigestIsContentStable pins the store fingerprint: identical data
// in two directories fingerprints identically, and the fingerprint exists
// without decoding any shard.
func TestStoreDigestIsContentStable(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ra, err := Open(tinyDir(t))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Open(tinyDir(t))
	if err != nil {
		t.Fatal(err)
	}
	da, err := ra.StoreDigest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := rb.StoreDigest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("identical datasets fingerprint differently: %s vs %s", da, db)
	}
	if da == "" {
		t.Error("empty store digest")
	}
}

// TestGenerateDirProgressIsSerial checks GenerateDir's progress contract at
// two workers: calls come one at a time with Done strictly increasing. The
// callback touches plain ints, so under -race overlapping calls are caught;
// two-server hybrid racks are quick, so the two workers' commits land close
// together.
func TestGenerateDirProgressIsSerial(t *testing.T) {
	cfg := tinyConfig()
	cfg.RacksPerRegion = 8
	cfg.ServersPerRack = 2
	cfg.Hours = []int{2}
	cfg.Buckets = 50
	cfg.Fidelity = fleet.FidelityHybrid
	cfg.Workers = 2
	calls, last := 0, 0
	_, err := GenerateDir(context.Background(), filepath.Join(t.TempDir(), "ds"), cfg, func(p Progress) {
		calls++
		if p.Done <= last {
			t.Errorf("progress Done went %d -> %d", last, p.Done)
		}
		last = p.Done
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2*cfg.RacksPerRegion {
		t.Errorf("progress called %d times, want %d", calls, 2*cfg.RacksPerRegion)
	}
}
