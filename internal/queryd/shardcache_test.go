package queryd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// All of these are meant for -race: cached runs are shared between requests.

// countingSource is the spy under the wrapper: it counts the shard decodes
// the cache let through.
type countingSource struct {
	DatasetSource
	rackRuns atomic.Int64
	// holdFor, when positive, holds a decode until the server has that many
	// requests in flight (or ten seconds have passed).
	holdFor atomic.Int64
	metrics *Metrics
}

func (c *countingSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	c.rackRuns.Add(1)
	for deadline := time.Now().Add(10 * time.Second); c.metrics.Snapshot().Inflight < c.holdFor.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return c.DatasetSource.RackRuns(region, id)
}

// serveCached stands up a server over root whose datasets are read through
// shards, each under a counting spy (returned by name once opened).
func serveCached(t *testing.T, root string, shards *cache[shardRuns]) (*Server, *httptest.Server, func(name string) *countingSource) {
	t.Helper()
	s := New(Config{Root: root, MaxConcurrent: 32})
	var mu sync.Mutex
	spies := map[string]*countingSource{}
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		r, err := dataset.Open(dir)
		if err != nil {
			return nil, err
		}
		spy := &countingSource{DatasetSource: r, metrics: s.Metrics()}
		mu.Lock()
		spies[filepath.Base(dir)] = spy
		mu.Unlock()
		return newCachedSource(dir, spy, shards), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, func(name string) *countingSource {
		mu.Lock()
		defer mu.Unlock()
		return spies[name]
	}
}

// fetch returns the status line and body as one comparable string.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, body := get(t, url, nil)
	return resp.Status + "\n" + string(body)
}

func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, body := get(t, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

func rackPath(m fleet.RackMeta) string {
	return fmt.Sprintf("/racks/%s/%d/runs", m.Region, m.ID)
}

func TestShardCacheByteIdentical(t *testing.T) {
	cached, tsC := newTestServer(t, Config{})
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, m := range r.RackMetas() {
		paths = append(paths, rackPath(m))
	}
	for _, c := range []fleet.Class{fleet.ClassATypical, fleet.ClassAHigh, fleet.ClassB} {
		paths = append(paths, "/runs?class="+c.String())
	}
	paths = append(paths, "/runs?limit=5")
	for _, id := range experiments.IDs() {
		if id == "fig5" { // regenerates raw rack-hours: a hundred times the cost of any other
			continue
		}
		for _, f := range []string{"text", "md", "json"} {
			paths = append(paths, "/renders/"+id+"?format="+f)
		}
	}
	for _, p := range paths {
		want := fetch(t, tsU.URL+"/v1/datasets/data/tiny"+p)
		for _, pass := range []string{"miss", "hit"} {
			if got := fetch(t, tsC.URL+"/v1/datasets/data/tiny"+p); got != want {
				t.Fatalf("%s (%s pass): cached server's answer differs from the uncached server's\n--- cached\n%.300s\n--- uncached\n%.300s", p, pass, got, want)
			}
		}
	}
	snap := cached.Metrics().Snapshot()
	if snap.ShardMisses != int64(len(r.Shards())) || snap.ShardHits == 0 {
		t.Errorf("shard cache saw %d misses, %d hits; want one miss per shard (%d) and hits", snap.ShardMisses, snap.ShardHits, len(r.Shards()))
	}
}

func TestShardCacheDecodesOnce(t *testing.T) {
	// A second dataset with other content beside a copy of the fixture's.
	root := t.TempDir()
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), filepath.Join(root, "tiny"))
	other := fixConfig()
	other.Seed += 1000
	other.HostStack = false
	if _, err := dataset.GenerateDir(context.Background(), filepath.Join(root, "other"), other, nil); err != nil {
		t.Fatal(err)
	}

	shards := newCache[shardRuns](shardCacheBytes)
	_, ts, spyOf := serveCached(t, root, shards)
	_, tsU := httptestServer(t, Config{Root: root, CacheBytes: -1})
	var metas []fleet.RackMeta
	if err := json.Unmarshal(mustGet(t, ts.URL+"/v1/datasets/tiny/racks"), &metas); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/datasets/tiny" + rackPath(metas[0])

	// Eight cold requests at once: the decode waits until all of them are in
	// the server, so seven are followers of the one fill (or, arriving late,
	// hits — one decode either way).
	const clients = 8
	spyOf("tiny").holdFor.Store(clients)
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	spyOf("tiny").holdFor.Store(0)
	for i := 0; i < 5; i++ {
		bodies = append(bodies, mustGet(t, url))
	}
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
			t.Fatalf("request %d: body differs from the first", i)
		}
	}
	if n := spyOf("tiny").rackRuns.Load(); n != 1 {
		t.Fatalf("%d requests for one rack cost %d decodes, want 1", len(bodies), n)
	}

	// Same region/id names, other bytes: every shard of the second dataset
	// is a miss, and its runs are its own.
	tiny := mustGet(t, ts.URL+"/v1/datasets/tiny/runs")
	otherBody := mustGet(t, ts.URL+"/v1/datasets/other/runs")
	if bytes.Equal(tiny, otherBody) {
		t.Fatal("two datasets with different seeds streamed identical runs")
	}
	if got, want := spyOf("other").rackRuns.Load(), int64(len(spyOf("other").Shards())); got != want {
		t.Errorf("first walk of the second dataset decoded %d shards, want all %d", got, want)
	}
	if !bytes.Equal(otherBody, mustGet(t, tsU.URL+"/v1/datasets/other/runs")) {
		t.Error("second dataset's stream is not what an uncached server streams for it")
	}
}

func TestShardCacheNeverServesChangedFile(t *testing.T) {
	root := t.TempDir()
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), filepath.Join(root, "tiny"))
	s, ts := httptestServer(t, Config{Root: root})

	r, err := dataset.Open(filepath.Join(root, "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	shard := r.Shards()[0]
	file := filepath.Join(root, "tiny", shard.File)
	rackURL := fmt.Sprintf("%s/v1/datasets/tiny/racks/%s/%d/runs", ts.URL, shard.Region, shard.ID)
	// Renders that walk every shard, each asked once: a render-cache hit
	// would prove nothing.
	renders := []string{"tab1", "fig6", "hoststack", "fig9"}

	want := mustGet(t, rackURL)
	mustGet(t, rackURL)
	mustGet(t, ts.URL+"/v1/datasets/tiny/renders/"+renders[0])
	if snap := s.Metrics().Snapshot(); snap.ShardHits == 0 {
		t.Fatalf("rack is not cached: %+v", snap)
	}

	orig, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	// rewrite replaces the shard file in place, same size, and moves its
	// mtime a step further each time, like any real rewrite would.
	step := 0
	rewrite := func(content []byte) {
		t.Helper()
		if err := os.WriteFile(file, content, 0o644); err != nil {
			t.Fatal(err)
		}
		step++
		mt := fi.ModTime().Add(time.Duration(step) * time.Second)
		if err := os.Chtimes(file, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	expect500 := func(url, carrying string) {
		t.Helper()
		resp, body := get(t, url, nil)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), carrying) {
			t.Fatalf("GET %s: %s: %.300s\nwant a 500 carrying %q", url, resp.Status, body, carrying)
		}
	}

	bad := bytes.Clone(orig)
	bad[len(bad)/2] ^= 0x40
	rewrite(bad)
	expect500(rackURL, "corrupt shard")
	expect500(ts.URL+"/v1/datasets/tiny/renders/"+renders[1], "corrupt shard")

	rewrite(orig)
	if got := mustGet(t, rackURL); !bytes.Equal(got, want) {
		t.Fatal("restored shard serves a different body")
	}
	mustGet(t, ts.URL+"/v1/datasets/tiny/renders/"+renders[2])

	if err := os.Remove(file); err != nil {
		t.Fatal(err)
	}
	expect500(rackURL, "no such file")
	expect500(ts.URL+"/v1/datasets/tiny/renders/"+renders[3], "no such file")
}

func TestShardCacheBounded(t *testing.T) {
	dir := filepath.Join(fixtureRoot(t), "data", "tiny")
	r, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var largest int64
	for _, sh := range r.Shards() {
		runs, err := r.RackRuns(sh.Region, sh.ID)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := encodeShard(runs)
		if err != nil {
			t.Fatal(err)
		}
		if n := sh.size(); n > largest {
			largest = n
		}
	}
	if largest < 1000 {
		t.Fatalf("largest shard is charged %d bytes; size is not counting", largest)
	}
	budget := 2 * largest
	shards := newCache[shardRuns](budget)
	_, ts, _ := serveCached(t, filepath.Join(fixtureRoot(t), "data"), shards)
	_, tsU := newTestServer(t, Config{CacheBytes: -1})

	want := mustGet(t, tsU.URL+"/v1/datasets/data/tiny/runs")
	for pass := 0; pass < 2; pass++ {
		if got := mustGet(t, ts.URL+"/v1/datasets/tiny/runs"); !bytes.Equal(got, want) {
			t.Fatalf("walk %d through a two-shard cache differs from the uncached walk", pass)
		}
		if used := shards.stats().bytes; used > budget || used == 0 {
			t.Fatalf("walk %d left %d bytes resident, budget %d", pass, used, budget)
		}
	}
	if shards.stats().evicts == 0 {
		t.Errorf("no evictions over two %d-shard walks with room for two shards", len(r.Shards()))
	}
}

func TestShardCacheCancellation(t *testing.T) {
	dir := filepath.Join(fixtureRoot(t), "data", "tiny")
	r, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards := newCache[shardRuns](shardCacheBytes)
	src := newCachedSource(dir, r, shards)
	total := 0
	if _, err := src.EachRun(func(*fleet.RunSummary, fleet.Class) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}
	// Everything is cached now. Cancel from inside the second callback: the
	// walk must stop there, mid-shard, as the Reader's does.
	for name, walk := range map[string]DatasetSource{"reader": r, "cached": src} {
		ctx, cancel := context.WithCancel(context.Background())
		delivered := 0
		_, err := walk.EachRunCtx(ctx, func(*fleet.RunSummary, fleet.Class) error {
			if delivered++; delivered == 2 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || delivered != 2 {
			t.Errorf("%s: cancelled walk delivered %d of %d runs, err %v; want 2 and context.Canceled", name, delivered, total, err)
		}
	}
	if shards.stats().hits == 0 {
		t.Error("the cancelled walk did not run on the hit path")
	}
}

// copyDir copies a flat directory (a dataset: manifest plus shard files).
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
