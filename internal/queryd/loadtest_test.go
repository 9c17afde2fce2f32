package queryd

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// meteredSource wraps the real streaming reader and measures how the
// server actually touches it: every delivered run goes through the
// streaming walk (EachRunCtx), and walkPeak records how many walks were in
// flight at once. There is no bulk accessor to count — DatasetSource has
// none, which is the memory bound's compile-time half; this spy is the
// runtime half, proving N concurrent clients cost N one-rack-at-a-time
// walks, never a full-dataset load.
type meteredSource struct {
	DatasetSource
	walksLive int64
	walkPeak  int64
	walks     int64
	runsOut   int64

	// barrier: the first `need` walks park at the walk start until all have
	// arrived, forcing genuine overlap regardless of scheduling luck. Later
	// walks pass through freely.
	need    int64
	arrived int64
	release chan struct{}
}

func (m *meteredSource) EachRunCtx(ctx context.Context, fn func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	live := atomic.AddInt64(&m.walksLive, 1)
	defer atomic.AddInt64(&m.walksLive, -1)
	for {
		peak := atomic.LoadInt64(&m.walkPeak)
		if live <= peak || atomic.CompareAndSwapInt64(&m.walkPeak, peak, live) {
			break
		}
	}
	atomic.AddInt64(&m.walks, 1)
	if m.release != nil {
		if atomic.AddInt64(&m.arrived, 1) == m.need {
			close(m.release)
		}
		select {
		case <-m.release:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return m.DatasetSource.EachRunCtx(ctx, func(r *fleet.RunSummary, c fleet.Class) error {
		atomic.AddInt64(&m.runsOut, 1)
		return fn(r, c)
	})
}

// TestConcurrentLoad is the service's acceptance test, meant for -race: 8
// concurrent streaming clients and 8 concurrent render clients against one
// server over a multi-rack dataset. Every streamed body must be
// byte-identical across clients; every render must be byte-identical to the
// local (CLI-path) render; repeated renders must hit the cache; and all
// delivered data must have flowed through the streaming one-rack-at-a-time
// source walk. Concurrent rack streams of different racks, cached and not,
// must each match a solo fetch of their rack.
func TestConcurrentLoad(t *testing.T) {
	root := fixtureRoot(t)
	s := New(Config{Root: root, MaxConcurrent: 32})
	metered := &meteredSource{need: 8, release: make(chan struct{})}
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		src, err := dataset.Open(dir)
		if err != nil {
			return nil, err
		}
		metered.DatasetSource = src
		return metered, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r, err := dataset.Open(filepath.Join(root, "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if metas := r.RackMetas(); len(metas) < 4 {
		t.Fatalf("fixture has %d racks; the load test needs a multi-rack dataset", len(metas))
	}
	totalRuns := 0
	if _, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { totalRuns++; return nil }); err != nil {
		t.Fatal(err)
	}
	renderID := experiments.IDs()[0]
	wantRender := localRender(t, r, renderID)

	const clients = 8
	streamBodies := make([][]byte, clients)
	renderBodies := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/runs")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("stream client %d: %s", i, resp.Status)
				return
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			streamBodies[i] = buf.Bytes()
		}(i)

		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/renders/" + renderID)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("render client %d: %s", i, resp.Status)
				return
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			renderBodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Digest-stable: all 8 streamed bodies are byte-identical, and carry
	// every run exactly once.
	ref := sha256.Sum256(streamBodies[0])
	refHex := hex.EncodeToString(ref[:])
	for i, b := range streamBodies {
		got := sha256.Sum256(b)
		if hex.EncodeToString(got[:]) != refHex {
			t.Fatalf("stream client %d body digest diverged", i)
		}
	}
	if lines := decodeNDJSON(t, streamBodies[0]); len(lines) != totalRuns {
		t.Fatalf("streamed %d runs, dataset has %d", len(lines), totalRuns)
	}

	// Renders: byte-identical to the local CLI-path render for every client.
	for i, b := range renderBodies {
		if !bytes.Equal(b, wantRender) {
			t.Fatalf("render client %d differs from local render", i)
		}
	}

	// The source spy: every delivered run flowed through a streaming walk
	// (8 stream walks + at most a handful of render walks behind the
	// singleflight), and walks really did overlap.
	walks := atomic.LoadInt64(&metered.walks)
	if walks < clients {
		t.Errorf("%d source walks for %d streaming clients", walks, clients)
	}
	if got := atomic.LoadInt64(&metered.runsOut); got < int64(totalRuns*clients) {
		t.Errorf("source delivered %d runs, want at least %d (8 full walks)", got, totalRuns*clients)
	}
	// The start barrier held the first 8 walks until all arrived, so the
	// peak proves 8 clients really walked the source simultaneously — each
	// inside its own one-rack-at-a-time stream.
	if peak := atomic.LoadInt64(&metered.walkPeak); peak < clients {
		t.Errorf("walk peak %d, want >= %d", peak, clients)
	}

	// Repeat the render: the cache must now serve it (hit ratio > 0).
	resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/renders/" + renderID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeated render X-Cache=%q", xc)
	}
	snap := s.Metrics().Snapshot()
	if snap.CacheHits < 1 {
		t.Errorf("cache hits %d after repeated renders", snap.CacheHits)
	}
	if snap.RendersBuilt < 1 || snap.RendersBuilt > 4 {
		t.Errorf("renders built %d for %d+1 render requests; singleflight/cache not collapsing", snap.RendersBuilt, clients)
	}
	if snap.RunsStreamed != int64(totalRuns*clients) {
		t.Errorf("runs-streamed counter %d, want %d", snap.RunsStreamed, totalRuns*clients)
	}
	if snap.BytesStreamed < int64(len(streamBodies[0])*clients) {
		t.Errorf("bytes-streamed counter %d below %d", snap.BytesStreamed, len(streamBodies[0])*clients)
	}

	// Rack streams of different racks at once, on this uncached source and
	// on a server with the decoded-shard cache: every body is the one a solo
	// fetch of its rack gets, so no two requests shared a body buffer.
	cached := httptest.NewServer(New(Config{Root: root, MaxConcurrent: 32}).Handler())
	defer cached.Close()
	for _, base := range []string{ts.URL, cached.URL} {
		concurrentRackStreams(t, base, r.RackMetas())
	}
}

// concurrentRackStreams fetches every rack alone, then has clients fetch the
// racks round-robin all at once, each body checked against its solo fetch.
func concurrentRackStreams(t *testing.T, base string, metas []fleet.RackMeta) {
	t.Helper()
	fetch := func(m fleet.RackMeta) ([]byte, error) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/datasets/data/tiny/racks/%s/%d/runs", base, m.Region, m.ID))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("rack %s/%d: %s: %s", m.Region, m.ID, resp.Status, buf.Bytes())
		}
		return buf.Bytes(), nil
	}
	solo := make([][]byte, len(metas))
	for i, m := range metas {
		var err error
		if solo[i], err = fetch(m); err != nil {
			t.Fatal(err)
		}
	}
	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				i := (c + k) % len(metas)
				body, err := fetch(metas[i])
				if err == nil && !bytes.Equal(body, solo[i]) {
					err = fmt.Errorf("client %d: rack %s/%d body differs from its solo fetch", c, metas[i].Region, metas[i].ID)
				}
				if err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pausingSource delivers the first run, then parks the walk until the test
// releases it — so a client that reads line 1 while the walk is provably
// parked has proven incremental delivery (no whole-response buffering).
type pausingSource struct {
	DatasetSource
	firstOut chan struct{}
	release  chan struct{}
}

func (p *pausingSource) EachRunCtx(ctx context.Context, fn func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	delivered := 0
	return p.DatasetSource.EachRunCtx(ctx, func(r *fleet.RunSummary, c fleet.Class) error {
		if err := fn(r, c); err != nil {
			return err
		}
		delivered++
		if delivered == 1 {
			close(p.firstOut)
			select {
			case <-p.release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	})
}

// TestStreamingDelivery pins down the memory-bound contract's visible half:
// the first NDJSON line reaches the client while the server's shard walk is
// still parked on run 1 — the response is produced run by run, never
// accumulated.
func TestStreamingDelivery(t *testing.T) {
	s := New(Config{Root: fixtureRoot(t)})
	gate := &pausingSource{firstOut: make(chan struct{}), release: make(chan struct{})}
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		src, err := dataset.Open(dir)
		if err != nil {
			return nil, err
		}
		gate.DatasetSource = src
		return gate, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-gate.firstOut // walk is now parked after delivering run 1

	br := bufio.NewReader(resp.Body)
	lineDone := make(chan error, 1)
	var line []byte
	go func() {
		var err error
		line, err = br.ReadBytes('\n')
		lineDone <- err
	}()
	select {
	case err := <-lineDone:
		if err != nil {
			t.Fatalf("first line while walk parked: %v", err)
		}
		if len(line) == 0 {
			t.Fatal("empty first line")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first line never arrived while the walk was parked — response is buffered, not streamed")
	}
	close(gate.release)

	var rest bytes.Buffer
	if _, err := rest.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if len(decodeNDJSON(t, append(line, rest.Bytes()...))) < 2 {
		t.Fatal("stream did not resume after release")
	}
}
