package queryd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/sweep"
)

// All of these are meant for -race: cached lines, constant figures and opened
// sweeps are shared between requests.

// wireLine is the record the stream handlers used to hand json.Encoder: what
// a line must still look like, and what the tests decode one into.
type wireLine struct {
	Class string            `json:"class"`
	Run   *fleet.RunSummary `json:"run"`
}

// encoderBody is the body the old per-line json.Encoder wrote for runs.
func encoderBody(t *testing.T, class fleet.Class, runs []fleet.RunSummary) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range runs {
		if err := enc.Encode(wireLine{Class: class.String(), Run: &runs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// fakeSource is a hand-built dataset: one shard per rack, the runs held in
// memory. Its shard "files" exist only to be stat-ed by the shard cache.
type fakeSource struct {
	metas  []fleet.RackMeta
	shards []dataset.ShardEntry
	runs   map[rackKey][]fleet.RunSummary
}

func (f *fakeSource) Config() fleet.Config         { return fleet.Config{} }
func (f *fakeSource) RackMetas() []fleet.RackMeta  { return f.metas }
func (f *fakeSource) Shards() []dataset.ShardEntry { return f.shards }
func (f *fakeSource) Complete() bool               { return true }
func (f *fakeSource) Progress() (int, int)         { return len(f.shards), len(f.shards) }
func (f *fakeSource) StoreDigest() (string, error) { return "fake-store-digest", nil }
func (f *fakeSource) RackRuns(region string, id int) ([]fleet.RunSummary, error) {
	runs, ok := f.runs[rackKey{region, id}]
	if !ok {
		return nil, fmt.Errorf("fake: no rack %s/%d", region, id)
	}
	return runs, nil
}
func (f *fakeSource) EachRun(fn func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	return f.EachRunCtx(context.Background(), fn)
}
func (f *fakeSource) EachRunCtx(ctx context.Context, fn func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	for _, m := range f.metas {
		runs := f.runs[rackKey{m.Region, m.ID}]
		for i := range runs {
			if err := fn(&runs[i], m.Class); err != nil {
				return 0, err
			}
		}
	}
	return 0, nil
}

// addRack gives the fake one more rack whose shard carries digest.
func (f *fakeSource) addRack(region string, id int, class fleet.Class, digest string, runs []fleet.RunSummary) {
	if f.runs == nil {
		f.runs = map[rackKey][]fleet.RunSummary{}
	}
	for i := range runs {
		runs[i].Region, runs[i].RackID = region, id
	}
	f.metas = append(f.metas, fleet.RackMeta{Region: region, ID: id, Class: class})
	f.shards = append(f.shards, dataset.ShardEntry{Region: region, ID: id, File: fmt.Sprintf("shard-%s-%d", region, id),
		Runs: len(runs), Digest: digest, Complete: true})
	f.runs[rackKey{region, id}] = runs
}

// serveFakes stands up a server over a root with one directory per fake: a
// manifest for the catalog to find and one file, of one fixed size and mtime,
// per shard. With shards non-nil every fake is read through that cache.
func serveFakes(t *testing.T, fakes map[string]*fakeSource, shards *cache[shardRuns]) (*Server, *httptest.Server) {
	t.Helper()
	root := t.TempDir()
	mtime := time.Unix(1_700_000_000, 0)
	for name, f := range fakes {
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, file := range append([]string{dataset.ManifestName}, shardFiles(f)...) {
			if err := os.WriteFile(filepath.Join(dir, file), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(filepath.Join(dir, file), mtime, mtime); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := New(Config{Root: root, MaxConcurrent: 32})
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		f := fakes[filepath.Base(dir)]
		if shards == nil {
			return f, nil
		}
		return newCachedSource(dir, f, shards), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func shardFiles(f *fakeSource) (files []string) {
	for _, sh := range f.shards {
		files = append(files, sh.File)
	}
	return files
}

// hostileRuns are runs whose strings need every escape encoding/json applies
// by default, with and without the optional host-stack record.
func hostileRuns() []fleet.RunSummary {
	return []fleet.RunSummary{
		{Hour: 1, Collected: true, AvgContention: 1.0 / 3, P90Contention: 1e21, ShareDrop: 5e-7,
			ServerRuns: make([]analysis.ServerRun, 2), Bursts: []fleet.BurstRec{{}, {}},
			HostStack: &fleet.HostStackRec{Hosts: 3, InP50Us: 0.1, InP99Us: 12345.678}},
		{Hour: 2, FailReason: "<b>&amp;</b> \u2028\u2029 \"quoted\" back\\slash \x01 \xff é"},
		{Hour: 3, Collected: true, IntervalNs: math.MaxInt64},
	}
}

func TestEncodedLineMatchesEncoder(t *testing.T) {
	for _, cached := range []bool{true, false} {
		f := &fakeSource{}
		for i, class := range []fleet.Class{fleet.ClassATypical, fleet.ClassAHigh, fleet.ClassB} {
			f.addRack(`Reg<&>"\`+"\u2028", i, class, fmt.Sprintf("digest-%d", i), hostileRuns())
		}
		var shards *cache[shardRuns]
		if cached {
			shards = newCache[shardRuns](shardCacheBytes)
		}
		_, ts := serveFakes(t, map[string]*fakeSource{"ds": f}, shards)
		var all []byte
		for _, m := range f.metas {
			want := encoderBody(t, m.Class, f.runs[rackKey{m.Region, m.ID}])
			all = append(all, want...)
			url := fmt.Sprintf("%s/v1/datasets/ds/racks/%s/%d/runs", ts.URL, "Reg%3C&%3E%22%5C%E2%80%A8", m.ID)
			for pass := 0; pass < 2; pass++ { // a fill, then a hit
				if got := mustGet(t, url); !bytes.Equal(got, want) {
					t.Fatalf("cached=%v rack %d pass %d:\n got %s\nwant %s", cached, m.ID, pass, got, want)
				}
			}
		}
		if got := mustGet(t, ts.URL+"/v1/datasets/ds/runs"); !bytes.Equal(got, all) {
			t.Fatalf("cached=%v full stream:\n got %s\nwant %s", cached, got, all)
		}
		want := encoderBody(t, fleet.ClassAHigh, f.runs[rackKey{f.metas[1].Region, 1}][1:2])
		if got := mustGet(t, ts.URL+"/v1/datasets/ds/runs?class=RegA-High&hour=2"); !bytes.Equal(got, want) {
			t.Fatalf("cached=%v filtered stream:\n got %s\nwant %s", cached, got, want)
		}

		// JSON has no NaN. The rack is encoded whole before its first byte goes
		// out, so the client gets an error it can read, not a truncated 200.
		bad := hostileRuns()
		bad[2].AvgContention = math.NaN()
		f.addRack("RegB", 9, fleet.ClassB, "digest-nan", bad)
		_, ts = serveFakes(t, map[string]*fakeSource{"ds": f}, shards)
		resp, body := get(t, ts.URL+"/v1/datasets/ds/racks/RegB/9/runs", nil)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "NaN") {
			t.Fatalf("cached=%v NaN rack: %s: %s, want a 500 naming the value", cached, resp.Status, body)
		}
	}
}

// countEncodes swaps a counting wrapper in for encodeRun until the test ends.
func countEncodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	real := encodeRun
	encodeRun = func(r *fleet.RunSummary) ([]byte, error) { n.Add(1); return real(r) }
	t.Cleanup(func() { encodeRun = real })
	return &n
}

func TestShardCacheEncodesOnce(t *testing.T) {
	root := filepath.Join(fixtureRoot(t), "data")
	encodes := countEncodes(t)
	shards := newCache[shardRuns](shardCacheBytes)
	_, ts, spyOf := serveCached(t, root, shards)
	var metas []fleet.RackMeta
	if err := json.Unmarshal(mustGet(t, ts.URL+"/v1/datasets/tiny/racks"), &metas); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/datasets/tiny" + rackPath(metas[0])

	const clients = 8
	spyOf("tiny").holdFor.Store(clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
		}()
	}
	wg.Wait()
	spyOf("tiny").holdFor.Store(0)
	for i := 0; i < 5; i++ {
		mustGet(t, url)
	}
	rackRuns := int64(len(decodeNDJSON(t, mustGet(t, url))))
	if n := encodes.Load(); n != rackRuns || n == 0 {
		t.Fatalf("%d rack streams of %d runs cost %d encodes, want one per run", clients+6, rackRuns, n)
	}

	full := mustGet(t, ts.URL+"/v1/datasets/tiny/runs")
	total := int64(len(decodeNDJSON(t, full)))
	if held := shards.stats().bytes; held < int64(len(full)) {
		t.Errorf("cache is charged %d bytes while holding the runs and the %d-byte stream's lines", held, len(full))
	}
	mustGet(t, ts.URL+"/v1/datasets/tiny/runs?class="+fleet.ClassB.String())
	if n := encodes.Load(); n != total || total <= rackRuns {
		t.Fatalf("rack streams and two full streams over %d runs cost %d encodes, want one per run", total, n)
	}

	// Uncached, the same function encodes per request.
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	for i := 0; i < 2; i++ {
		mustGet(t, tsU.URL+"/v1/datasets/data/tiny/runs")
	}
	if n := encodes.Load(); n != 3*total {
		t.Fatalf("two uncached full streams brought the count to %d, want %d", n, 3*total)
	}
}

// TestSharedShardTwoClasses: the shard cache is shared across datasets and
// keyed by what the file is, while the class of a rack is what its dataset's
// metadata says. Two datasets naming one shard under different classes share
// the decoded runs and the encoded lines, and each streams its own class.
func TestSharedShardTwoClasses(t *testing.T) {
	one, two := &fakeSource{}, &fakeSource{}
	one.addRack("RegA", 0, fleet.ClassATypical, "same-digest", hostileRuns())
	two.addRack("RegA", 0, fleet.ClassAHigh, "same-digest", hostileRuns())
	shards := newCache[shardRuns](shardCacheBytes)
	_, ts := serveFakes(t, map[string]*fakeSource{"one": one, "two": two}, shards)

	for _, path := range []string{"/racks/RegA/0/runs", "/runs"} {
		for name, f := range map[string]*fakeSource{"one": one, "two": two} {
			want := encoderBody(t, f.metas[0].Class, f.runs[rackKey{"RegA", 0}])
			if got := mustGet(t, ts.URL+"/v1/datasets/"+name+path); !bytes.Equal(got, want) {
				t.Fatalf("dataset %s %s:\n got %s\nwant %s", name, path, got, want)
			}
		}
	}
	if st := shards.stats(); st.misses != 1 || st.hits != 3 {
		t.Fatalf("two datasets over one shard: %d misses, %d hits; want the shard decoded once and shared", st.misses, st.hits)
	}
}

// TestRackStreamHitAllocs pins the hit path's shape: a rack stream served from
// the cache assembles lines in one reused buffer, so what it allocates does
// not grow with the number of runs. A json.Encoder per line does.
func TestRackStreamHitAllocs(t *testing.T) {
	f := &fakeSource{}
	runs := make([]fleet.RunSummary, 300)
	for i := range runs {
		runs[i] = hostileRuns()[0]
		runs[i].Hour = i
	}
	f.addRack("RegA", 0, fleet.ClassATypical, "digest", runs)
	s, _ := serveFakes(t, map[string]*fakeSource{"ds": f}, newCache[shardRuns](shardCacheBytes))
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/datasets/ds/racks/RegA/0/runs", nil)
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), encoderBody(t, fleet.ClassATypical, runs)) {
		t.Fatalf("rack stream: %d, %d body bytes", rec.Code, rec.Body.Len())
	}
	if allocs := testing.AllocsPerRun(20, func() { serve() }); allocs > float64(len(runs))/2 {
		t.Fatalf("a cached %d-run rack stream allocates %.0f times: the hit path is allocating per line", len(runs), allocs)
	}
}

// TestFilterSkipsShardsItCannotMatch: region, rack and class are decided per
// shard from the manifest and the rack metadata, so a stream touches only the
// shards that can contribute to it, and a damaged shard it does not select
// cannot fail it.
func TestFilterSkipsShardsItCannotMatch(t *testing.T) {
	root := t.TempDir()
	copyDir(t, filepath.Join(fixtureRoot(t), "data", "tiny"), filepath.Join(root, "tiny"))
	s, ts := httptestServer(t, Config{Root: root})
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	r, err := dataset.Open(filepath.Join(root, "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	damaged := false
	touches := int64(1) // ?region=RegA&rack=1&hour=6 needs one shard
	for _, m := range r.RackMetas() {
		if m.Region == fleet.RegA {
			touches++ // ?region=RegA
		}
		if m.Class == fleet.ClassATypical {
			touches++ // ?class=RegA-Typical
		}
	}
	for _, sh := range r.Shards() {
		if sh.Region == fleet.RegB && !damaged {
			damaged = true
			if err := os.Truncate(filepath.Join(root, "tiny", sh.File), 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []string{"?region=RegA", "?class=RegA-Typical", "?region=RegA&rack=1&hour=6"} {
		want := mustGet(t, tsU.URL+"/v1/datasets/data/tiny/runs"+q)
		if got := mustGet(t, ts.URL+"/v1/datasets/tiny/runs"+q); !bytes.Equal(got, want) || len(got) == 0 {
			t.Fatalf("%s beside a damaged RegB shard: %d bytes, the healthy store streams %d", q, len(got), len(want))
		}
	}
	if st := s.Metrics().Snapshot(); st.ShardMisses+st.ShardHits != touches {
		t.Errorf("three RegA streams touched the shard cache %d times, want %d: %+v", st.ShardMisses+st.ShardHits, touches, st)
	}
	// A stream that does select the damaged shard still fails on it.
	if resp, err := http.Get(ts.URL + "/v1/datasets/tiny/runs?region=RegB"); err == nil {
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("stream over the damaged shard ended cleanly after %d bytes", buf.Len())
		}
	}
}

func TestConstFiguresComputedOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 64})
	local := map[string]*experiments.Result{}
	for id, g := range map[string]experiments.Generator{"fig3": experiments.Fig03MulticastSync, "fig4": experiments.Fig04BurstIdent} {
		res, err := g(nil) // the generator itself, never memoised
		if err != nil {
			t.Fatal(err)
		}
		local[id] = res
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for id, res := range local {
			for _, format := range []string{"text", "md", "json"} {
				wg.Add(1)
				go func(id, format string, res *experiments.Result) {
					defer wg.Done()
					want, err := renderResults([]*experiments.Result{res}, format)
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := http.Get(ts.URL + "/v1/datasets/data/tiny/renders/" + id + "?format=" + format)
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					var got bytes.Buffer
					got.ReadFrom(resp.Body)
					if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
						t.Errorf("%s as %s: %s, body differs from the generator's own result rendered here", id, format, resp.Status)
					}
				}(id, format, res)
			}
		}
	}
	wg.Wait()
	if built := s.Metrics().Snapshot().RendersBuilt; built != 6 {
		t.Errorf("%d renders built for 2 figures in 3 formats", built)
	}
	// Six renders were built from two simulations: every call through the
	// registry, the server's included, gets the one Result.
	for id := range local {
		first, err := experiments.Run(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := experiments.Run(id, nil); again != first || first == local[id] {
			t.Errorf("%s: Run returned %p then %p (generator's own: %p); want one shared Result", id, first, again, local[id])
		}
	}
}

// sweepURLs are the twelve what-if renders of one sweep.
func sweepURLs(base string) (urls []string) {
	for _, id := range append([]string{"all"}, sweepRenderIDs...) {
		for _, format := range []string{"text", "md", "json"} {
			urls = append(urls, base+"/renders/"+id+"?format="+format)
		}
	}
	return urls
}

func TestSweepOpenedOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	for i, u := range sweepURLs("/v1/sweeps/sweeps/tiny") {
		resp, got := get(t, ts.URL+u, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: %s, X-Cache %q; want a cold render", u, resp.Status, resp.Header.Get("X-Cache"))
		}
		if want := mustGet(t, tsU.URL+u); !bytes.Equal(got, want) {
			t.Fatalf("%s: body differs from the uncached server's", u)
		}
		if st := s.sweeps.stats(); st.misses != 1 || st.hits != int64(i) || st.bytes == 0 {
			t.Fatalf("after %d cold renders the sweep cache saw %d misses, %d hits, holds %d bytes; want one sweep.Open", i+1, st.misses, st.hits, st.bytes)
		}
	}
}

func TestSweepCacheNeverServesChangedPoint(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "tiny")
	copyDir(t, filepath.Join(fixtureRoot(t), "sweeps", "tiny"), dir)
	s, ts := httptestServer(t, Config{Root: root})
	man, err := sweep.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, man.Points[len(man.Points)-1].File)
	// Each render is asked for once: a render-cache hit would prove nothing.
	urls := sweepURLs(ts.URL + "/v1/sweeps/tiny")
	next := func() string { u := urls[0]; urls = urls[1:]; return u }

	mustGet(t, next())
	mustGet(t, next())
	if st := s.sweeps.stats(); st.hits != 1 {
		t.Fatalf("sweep is not cached: %+v", st)
	}
	orig, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
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
	// expectOpenError: the answer is a 500 carrying what sweep.Open says of
	// the directory right now — the text an uncached server would send.
	expectOpenError := func(url string) {
		t.Helper()
		_, openErr := sweep.Open(dir)
		if openErr == nil {
			t.Fatal("sweep.Open accepts the damaged store")
		}
		resp, body := get(t, url, nil)
		var e struct{ Error struct{ Message string } }
		if json.Unmarshal(body, &e); resp.StatusCode != http.StatusInternalServerError || e.Error.Message != openErr.Error() {
			t.Fatalf("GET %s: %s: %.300s\nwant a 500 carrying %q", url, resp.Status, body, openErr)
		}
	}

	bad := bytes.Clone(orig)
	bad[len(bad)/2] ^= 0x01 // same size: only the mtime and the digest tell
	rewrite(bad)
	expectOpenError(next())

	rewrite(orig)
	u := next()
	_, tsU := newTestServer(t, Config{CacheBytes: -1})
	want := mustGet(t, tsU.URL+"/v1/sweeps/sweeps"+strings.TrimPrefix(u, ts.URL+"/v1/sweeps"))
	if got := mustGet(t, u); !bytes.Equal(got, want) {
		t.Fatal("restored point serves a different body")
	}

	if err := os.Remove(file); err != nil {
		t.Fatal(err)
	}
	expectOpenError(next())
}
