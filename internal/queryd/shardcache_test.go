package queryd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	"repro/internal/httpserve"
)

// All of these are meant for -race: cached runs are shared between requests.

// countingSource is the spy under the shard cache: it counts the shard
// decodes the cache let through.
type countingSource struct {
	DatasetSource
	rackRuns atomic.Int64
	// holdFor, when positive, holds a decode until the server has that many
	// requests in flight (or ten seconds have passed); inflightPeak is the
	// most the held decode saw.
	holdFor      atomic.Int64
	inflightPeak atomic.Int64
	metrics      *Metrics
}

func (c *countingSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	c.rackRuns.Add(1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := c.metrics.Snapshot().Inflight
		if n > c.inflightPeak.Load() {
			c.inflightPeak.Store(n)
		}
		if n >= c.holdFor.Load() {
			break
		}
	}
	return c.DatasetSource.RackRuns(region, id)
}

// serveCached stands up a server over root whose datasets are each opened
// under a counting spy (returned by name once opened), beneath the server's
// shard cache.
func serveCached(t *testing.T, root string) (*Server, *httptest.Server, func(name string) *countingSource) {
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
		return spy, nil
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

// The want* helpers build a body from the dataset.Reader alone, so a server
// is checked against a reference that shares none of its read path: neither
// the shard cache's walk, its per-shard pre-skip, its class map nor its
// cached encodings.

// wantRuns is the /runs?query body: every run the query's filter matches, in
// the Reader's walk order, encoded as the old per-line json.Encoder did, up
// to the limit.
func wantRuns(t *testing.T, r *dataset.Reader, query string) []byte {
	t.Helper()
	f, err := parseFilter(httptest.NewRequest(http.MethodGet, "/runs"+query, nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := 0
	if _, err := r.EachRun(func(run *fleet.RunSummary, c fleet.Class) error {
		if !f.match(run, c) || (f.limit > 0 && n >= f.limit) {
			return nil
		}
		n++
		return enc.Encode(wireLine{Class: c.String(), Run: run})
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantRack is one rack's stream body, from the Reader's RackRuns.
func wantRack(t *testing.T, r *dataset.Reader, m fleet.RackMeta) []byte {
	t.Helper()
	runs, err := r.RackRuns(m.Region, m.ID)
	if err != nil {
		t.Fatal(err)
	}
	return encoderBody(t, m.Class, runs)
}

// wantRenders is what /renders/id (or /renders/all) answers in each format,
// status line and body, from a render over the Reader: the render, or the 500
// its refusal gets.
func wantRenders(t *testing.T, r *dataset.Reader, id string, formats ...string) map[string]string {
	t.Helper()
	var results []*experiments.Result
	var refusal error
	if id == "all" {
		results, refusal = experiments.RunAll(r)
	} else {
		res, err := experiments.Run(id, r)
		results, refusal = []*experiments.Result{res}, err
	}
	out := map[string]string{}
	for _, f := range formats {
		if refusal != nil {
			rec := httptest.NewRecorder()
			httpserve.Error(rec, http.StatusInternalServerError, "%v", refusal)
			out[f] = "500 Internal Server Error\n" + rec.Body.String()
			continue
		}
		body, err := renderResults(results, f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = "200 OK\n" + string(body)
	}
	return out
}

// TestShardCacheByteIdentical: every rack stream, filtered stream and render
// answers what the Reader alone yields — from the default server on its miss
// pass and its hit pass, and from a server with every cache off.
func TestShardCacheByteIdentical(t *testing.T) {
	cached, tsC := newTestServer(t, Config{})
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var paths []string
	add := func(p, answer string) {
		paths = append(paths, p)
		want[p] = answer
	}
	for _, m := range r.RackMetas() {
		add(rackPath(m), "200 OK\n"+string(wantRack(t, r, m)))
	}
	for _, c := range []fleet.Class{fleet.ClassATypical, fleet.ClassAHigh, fleet.ClassB} {
		q := "?class=" + c.String()
		add("/runs"+q, "200 OK\n"+string(wantRuns(t, r, q)))
	}
	add("/runs?limit=5", "200 OK\n"+string(wantRuns(t, r, "?limit=5")))
	for _, id := range experiments.IDs() {
		if id == "fig5" { // regenerates raw rack-hours: a hundred times the cost of any other
			continue
		}
		formats := []string{"text", "md", "json"}
		bodies := wantRenders(t, r, id, formats...)
		for _, f := range formats {
			add("/renders/"+id+"?format="+f, bodies[f])
		}
	}
	for _, p := range paths {
		want := want[p]
		for _, pass := range []struct{ name, url string }{{"miss", tsC.URL}, {"hit", tsC.URL}, {"caches off", tsU.URL}} {
			if got := fetch(t, pass.url+"/v1/datasets/data/tiny"+p); got != want {
				t.Fatalf("%s (%s): answer differs from the Reader's\n--- server\n%.300s\n--- reader\n%.300s", p, pass.name, got, want)
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

	_, ts, spyOf := serveCached(t, root)
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
	tinyReader, err := dataset.Open(filepath.Join(root, "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	want := wantRack(t, tinyReader, metas[0])
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, want) {
			t.Fatalf("request %d: body differs from the Reader's runs for the rack", i)
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
	otherReader, err := dataset.Open(filepath.Join(root, "other"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(otherBody, wantRuns(t, otherReader, "")) {
		t.Error("second dataset's stream is not the Reader's walk of it")
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
	renders := []string{"tab1", "fig6", "hoststack", "fig12"}

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
	// The full report fails too, rather than noting a refusal per experiment
	// and caching that under the store's ETag.
	expect500(ts.URL+"/v1/datasets/tiny/renders/all", "corrupt shard")

	rewrite(orig)
	if got := mustGet(t, rackURL); !bytes.Equal(got, want) {
		t.Fatal("restored shard serves a different body")
	}
	mustGet(t, ts.URL+"/v1/datasets/tiny/renders/"+renders[2])
	mustGet(t, ts.URL+"/v1/datasets/tiny/renders/all")

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
	s, ts, _ := serveCached(t, filepath.Join(fixtureRoot(t), "data"))
	shards := s.catalog.shards
	shards.max = budget

	want := wantRuns(t, r, "")
	for pass := 0; pass < 2; pass++ {
		if got := mustGet(t, ts.URL+"/v1/datasets/tiny/runs"); !bytes.Equal(got, want) {
			t.Fatalf("walk %d through a two-shard cache differs from the Reader's walk", pass)
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
	if _, err := src.EachRunCtx(context.Background(), func(*fleet.RunSummary, fleet.Class) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}
	// Everything is cached now. Cancel from inside the second callback: the
	// walk must stop there, mid-shard, as the Reader's does.
	type walker interface {
		EachRunCtx(context.Context, func(*fleet.RunSummary, fleet.Class) error) (int, error)
	}
	for name, walk := range map[string]walker{"reader": r, "cached": src} {
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

// TestCorruptShardStreamsNothingWithCachesOff: with every cache off a stream
// still verifies a shard whole before delivering any of it, so a first shard
// that fails its check yields no NDJSON line, and, nothing having been sent,
// the client gets a readable 500 naming the corrupt shard.
func TestCorruptShardStreamsNothingWithCachesOff(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "tiny")
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), dir)
	r, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if first := r.Shards()[0]; first.Runs == 0 {
		t.Fatal("the fixture's first shard holds no runs")
	}
	f, err := os.OpenFile(filepath.Join(dir, r.Shards()[0].File), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("trailing garbage"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := httptestServer(t, Config{Root: root, CacheBytes: -1})
	resp, err := http.Get(ts.URL + "/v1/datasets/tiny/runs")
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil || resp.StatusCode != http.StatusInternalServerError ||
		bytes.Contains(body, []byte(`{"class":`)) || !bytes.Contains(body, []byte("corrupt shard")) {
		t.Fatalf("%s, body %.300q, read error %v; want a 500 naming the corrupt shard and no NDJSON line", resp.Status, body, readErr)
	}
	if et := resp.Header.Get("ETag"); et != "" {
		t.Errorf("error response carries ETag %q", et)
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
