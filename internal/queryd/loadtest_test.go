package queryd

import (
	"bufio"
	"bytes"
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
	"repro/internal/fleet"
)

// TestConcurrentLoad is the service's acceptance test, meant for -race: 8
// concurrent streaming clients and 8 concurrent render clients against one
// server over a multi-rack dataset. Every streamed body must be
// byte-identical across clients; every render must be byte-identical to the
// local (CLI-path) render; repeated renders must hit the cache; all 16
// clients must be inside the server at once; and every delivered run must
// come from one decode of its rack's shard, beneath the shard cache.
// Concurrent rack streams of different racks, with the caches on and off,
// must each match a solo fetch of their rack.
func TestConcurrentLoad(t *testing.T) {
	root := fixtureRoot(t)
	s, ts, spyOf := serveCached(t, root)

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
	// A render that walks the dataset, so its clients wait on the same
	// shard decode as the streams do.
	const renderID = "tab1"
	wantRender := localRender(t, r, renderID)

	const clients = 8
	// Open the dataset, then hold its first decode until every client is in
	// the server: none can finish before it, so the in-flight peak proves
	// the 16 requests overlapped.
	mustGet(t, ts.URL+"/v1/datasets/data/tiny/racks")
	spy := spyOf("tiny")
	spy.holdFor.Store(2 * clients)
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

	// The source spy: 16 clients, one decode per shard, and every one of
	// them in the server while the first decode was held.
	if got, want := spy.rackRuns.Load(), int64(len(r.Shards())); got != want {
		t.Errorf("%d source decodes for %d shards under %d clients; want one per shard", got, want, 2*clients)
	}
	if peak := spy.inflightPeak.Load(); peak < 2*clients {
		t.Errorf("in-flight peak %d, want >= %d", peak, 2*clients)
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

	// Rack streams of different racks at once, on this server and on one
	// with every cache off: every body is the one a solo fetch of its rack
	// gets, so no two requests shared a body buffer.
	_, uncached := httptestServer(t, Config{Root: root, MaxConcurrent: 32, CacheBytes: -1})
	for _, base := range []string{ts.URL, uncached.URL} {
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

// pausingSource parks the decode of the second shard until the test
// releases it — so a client that reads the first shard's lines while that
// fill is provably parked has proven incremental delivery (no whole-response
// buffering).
type pausingSource struct {
	DatasetSource
	decodes atomic.Int64
	parked  chan struct{}
	release chan struct{}
}

func (p *pausingSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	if p.decodes.Add(1) == 2 {
		close(p.parked)
		<-p.release
	}
	return p.DatasetSource.RackRuns(region, id)
}

// TestStreamingDelivery pins down the memory-bound contract's visible half:
// the first shard's NDJSON lines reach the client while the server's fill of
// the second shard is still parked — the response is produced shard by
// shard, never accumulated.
func TestStreamingDelivery(t *testing.T) {
	s := New(Config{Root: fixtureRoot(t)})
	gate := &pausingSource{parked: make(chan struct{}), release: make(chan struct{})}
	var first int
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		src, err := dataset.Open(dir)
		if err != nil {
			return nil, err
		}
		first = src.Shards()[0].Runs
		gate.DatasetSource = src
		return gate, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release() // before ts.Close, which waits for the parked request

	resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-gate.parked // the walk is now parked on shard two's fill
	if first == 0 {
		t.Fatal("the fixture's first shard holds no runs")
	}

	br := bufio.NewReader(resp.Body)
	linesDone := make(chan error, 1)
	var lines []byte
	go func() {
		for i := 0; i < first; i++ {
			line, err := br.ReadBytes('\n')
			lines = append(lines, line...)
			if err != nil {
				linesDone <- err
				return
			}
		}
		linesDone <- nil
	}()
	select {
	case err := <-linesDone:
		if err != nil {
			t.Fatalf("first shard's lines while the second shard's fill was parked: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first shard's lines never arrived while the walk was parked — response is buffered, not streamed")
	}
	release()

	var rest bytes.Buffer
	if _, err := rest.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if rest.Len() == 0 || len(decodeNDJSON(t, append(lines, rest.Bytes()...))) < 2 {
		t.Fatal("stream did not resume after release")
	}
}
