package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/distrib"
	"repro/internal/fleet"
	"repro/internal/retry"
	"repro/internal/sweep"
	"repro/internal/switchsim"
)

// tinyFleet keeps the chaos runs fast: 4 shards over one hour.
func tinyFleet() fleet.Config {
	c := fleet.SmallConfig()
	c.RacksPerRegion = 2
	c.ServersPerRack = 12
	c.Hours = []int{6}
	c.Buckets = 200
	c.Workers = 2
	return c
}

// chaosConfig is the standing fault mix: ≥10% of RPCs lost (split between
// request and response drops), duplicated deliveries, scheduling delay, and
// exactly one corrupted upload.
func chaosConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		DropRequest:        0.07,
		DropResponse:       0.05,
		Duplicate:          0.10,
		MaxDelay:           3 * time.Millisecond,
		CorruptFirstUpload: true,
	}
}

// workerRetry tolerates the drop rate without stretching the test.
func workerRetry() retry.Policy {
	return retry.Policy{MaxAttempts: 10, Base: 5 * time.Millisecond, Factor: 2, Max: 80 * time.Millisecond, Jitter: 0.2}
}

// runChaosFleet drives a coordinator plus three workers — one of which is
// chaos-killed after killAfter units — until the job completes, and returns
// the coordinator for ledger assertions.
func runChaosFleet(t *testing.T, req *distrib.JobRequest, seed int64, killAfter int) *distrib.Coordinator {
	t.Helper()
	coord := distrib.NewCoordinator(distrib.CoordinatorConfig{
		LeaseTTL:          400 * time.Millisecond,
		StragglerDeadline: 30 * time.Second,
		RetryAfter:        25 * time.Millisecond,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	go coord.RunExpiry(ctx, 50*time.Millisecond)

	submit := &distrib.Client{BaseURL: srv.URL, Worker: "submitter", Policy: workerRetry()}
	if err := submit.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}

	tr := NewTransport(nil, chaosConfig(seed))
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	mkWorker := func(name string) *distrib.Worker {
		return &distrib.Worker{
			Client: &distrib.Client{
				BaseURL: srv.URL, Worker: name,
				HTTPClient: hc, Policy: workerRetry(),
			},
			SimWorkers: 1,
			Log:        t.Logf,
		}
	}

	// The victim runs alone first so it is guaranteed to be holding a lease
	// when it dies — with a shared pool, a racing peer could otherwise starve
	// it of units and the kill would never be exercised. It "SIGKILLs" after
	// killAfter successful uploads: the next unit is abandoned with no upload
	// and no release, so only lease expiry can recover it.
	victim := mkWorker("w-killed")
	victim.BeforeUpload = KillAfter(killAfter)
	if err := victim.Run(ctx); err != nil {
		t.Errorf("victim worker: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w := mkWorker([]string{"w-a", "w-b"}[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	select {
	case <-coord.Done():
	default:
		t.Fatalf("workers exited but the job did not finalize: %+v", coord.Status())
	}
	if err := coord.Ledger().Check(); err != nil {
		t.Fatal(err)
	}
	tot := coord.Ledger().Totals()
	t.Logf("ledger totals: %+v", tot)
	if tot.Expired == 0 {
		t.Error("no lease ever expired — the chaos kill was not exercised")
	}
	if tot.Quarantined == 0 {
		t.Error("no upload was quarantined — the corruption was not exercised")
	}
	dropped, duplicated, corrupted, _ := tr.Stats()
	t.Logf("chaos: %d dropped, %d duplicated, %d corrupted", dropped, duplicated, corrupted)
	if corrupted != 1 {
		t.Errorf("corrupted %d uploads, want exactly 1", corrupted)
	}
	return coord
}

// TestChaosDatasetByteIdentical is the tentpole claim: a dataset generated
// by a lossy, duplicating, corrupting, worker-killing distributed run is
// byte-identical to single-process generation.
func TestChaosDatasetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration is slow")
	}
	cfg := tinyFleet()

	goldenDir := filepath.Join(t.TempDir(), "golden")
	gr, err := dataset.GenerateDir(context.Background(), goldenDir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	goldenDS, err := gr.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	goldenDigest, err := goldenDS.Digest()
	if err != nil {
		t.Fatal(err)
	}

	distDir := filepath.Join(t.TempDir(), "dist")
	coord := runChaosFleet(t, &distrib.JobRequest{Kind: distrib.KindShard, Dir: distDir, Config: &cfg}, 20220, 1)

	dr, err := dataset.Open(distDir)
	if err != nil {
		t.Fatal(err)
	}
	distDS, err := dr.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	distDigest, err := distDS.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if distDigest != goldenDigest {
		t.Errorf("distributed dataset digest %s != single-process %s", distDigest, goldenDigest)
	}

	// Byte identity, not just semantic equality: every shard file hashes the
	// same on both sides.
	golden := map[string]string{}
	for _, s := range gr.Shards() {
		golden[s.File] = s.Digest
	}
	for _, s := range dr.Shards() {
		if golden[s.File] != s.Digest {
			t.Errorf("shard %s: distributed digest %s != golden %s", s.File, s.Digest, golden[s.File])
		}
	}

	// The corrupted upload was preserved for post-mortem.
	entries, err := os.ReadDir(filepath.Join(distDir, "quarantine"))
	if err != nil || len(entries) == 0 {
		t.Errorf("no quarantine files (err %v)", err)
	}
	// The job's fingerprint is the store digest queryd serves as the ETag
	// base: one fingerprint per dataset, whichever service reports it.
	store, err := dr.StoreDigest()
	if err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); !st.Complete || st.Fingerprint != store {
		t.Errorf("status %+v after completion, want fingerprint %s", st, store)
	}
}

// TestChaosSweepByteIdentical proves the same for sweep jobs: the lanes
// uploaded by whichever workers survived fold, once the last one lands, into
// point files and a classification byte-identical to a local run's.
func TestChaosSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration is slow")
	}
	spec := sweep.Spec{
		Name:     "chaos",
		Fleet:    tinyFleet(),
		Policies: []switchsim.Policy{switchsim.PolicyComplete},
		Alphas:   []float64{1, 4},
	}

	goldenDir := filepath.Join(t.TempDir(), "golden")
	gres, err := sweep.Run(context.Background(), goldenDir, spec, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	distDir := filepath.Join(t.TempDir(), "dist")
	runChaosFleet(t, &distrib.JobRequest{Kind: distrib.KindLane, Dir: distDir, Spec: &spec}, 41, 0)

	dres, err := sweep.Open(distDir)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Manifest.ResultDigest != gres.Manifest.ResultDigest {
		t.Errorf("distributed sweep digest %s != single-process %s",
			dres.Manifest.ResultDigest, gres.Manifest.ResultDigest)
	}
	for i := range gres.Manifest.Points {
		g, d := gres.Manifest.Points[i], dres.Manifest.Points[i]
		if g.Digest != d.Digest {
			t.Errorf("point %d (%s): distributed digest %s != golden %s", i, g.Label, d.Digest, g.Digest)
		}
	}
}

// TestWorkerDrainReleasesLease covers the graceful half of worker death:
// cancelling a worker's context mid-computation hands the unit back so a
// peer picks it up without waiting out the lease.
func TestWorkerDrainReleasesLease(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration is slow")
	}
	cfg := tinyFleet()
	coord := distrib.NewCoordinator(distrib.CoordinatorConfig{
		LeaseTTL: 10 * time.Minute, // only a Release can free a unit in test time
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	dir := t.TempDir()
	submit := &distrib.Client{BaseURL: srv.URL, Worker: "submitter"}
	if err := submit.Submit(context.Background(), &distrib.JobRequest{Kind: distrib.KindShard, Dir: dir, Config: &cfg}); err != nil {
		t.Fatal(err)
	}

	// The draining worker is cancelled the moment it starts uploading is too
	// late — cancel as soon as it leases, mid-computation.
	dctx, dcancel := context.WithCancel(context.Background())
	leased := make(chan struct{}, 8)
	drained := &distrib.Worker{
		Client: &distrib.Client{BaseURL: srv.URL, Worker: "drainee"},
		Log: func(format string, args ...any) {
			if len(args) > 0 && format == "leased %s (ttl %dms)" {
				leased <- struct{}{}
			}
		},
	}
	done := make(chan error, 1)
	go func() { done <- drained.Run(dctx) }()
	<-leased
	dcancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("drained worker returned %v, want context.Canceled", err)
	}

	// Every unit must still be obtainable by a healthy worker right away:
	// the drained unit was released, not leaked until TTL.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &distrib.Worker{Client: &distrib.Client{BaseURL: srv.URL, Worker: "healthy"}, SimWorkers: 2}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if st := coord.Status(); !st.Complete {
		t.Fatalf("job incomplete after healthy worker: %+v", st)
	}
	if err := coord.Ledger().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptOnceKeepsFraming pins the corruption injection itself: the
// mutated body still parses as a CompleteRequest and still declares the
// original digest — only the payload bytes moved.
func TestCorruptOnceKeepsFraming(t *testing.T) {
	tr := NewTransport(nil, Config{CorruptFirstUpload: true})
	orig := distrib.CompleteRequest{
		Worker: "w", UnitID: "shard:RegA/0", Token: "l-1",
		SHA256: "abc", Payload: []byte("hello shard bytes"),
	}
	body, err := json.Marshal(&orig)
	if err != nil {
		t.Fatal(err)
	}
	mutated, ok := tr.corruptOnce(body)
	if !ok {
		t.Fatal("corruptOnce declined")
	}
	var got distrib.CompleteRequest
	if err := json.Unmarshal(mutated, &got); err != nil {
		t.Fatalf("mutated body no longer parses: %v", err)
	}
	if got.SHA256 != orig.SHA256 || got.UnitID != orig.UnitID {
		t.Error("corruption touched more than the payload")
	}
	if string(got.Payload) == string(orig.Payload) {
		t.Error("payload unchanged")
	}
	if _, ok := tr.corruptOnce(body); ok {
		t.Error("corruptOnce fired twice")
	}
}
