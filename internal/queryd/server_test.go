package queryd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/sweep"
	"repro/internal/switchsim"
)

// The fixture root is generated once per test binary run (dataset + sweep
// generation is the expensive part) and shared read-only by every test —
// exactly the access pattern queryd serves.
var (
	fixOnce sync.Once
	fixDir  string
	fixErr  error
)

func fixConfig() fleet.Config {
	c := fleet.SmallConfig()
	c.RacksPerRegion = 3
	c.ServersPerRack = 12
	c.Hours = []int{2, 6}
	c.Buckets = 200
	c.Workers = 2
	// Arm the host-stack instrument so the fixture exercises the full
	// HostStackRec path: gob shard round-trip, catalog flag, and the
	// "hoststack" render with real series.
	c.HostStack = true
	return c
}

func fixSpec() sweep.Spec {
	return sweep.Spec{
		Name: "tiny",
		Fleet: fleet.Config{
			Seed:           11,
			RacksPerRegion: 1,
			ServersPerRack: 12,
			Hours:          []int{6},
			Buckets:        200,
			Workers:        2,
		},
		Policies: []switchsim.Policy{switchsim.PolicyDT, switchsim.PolicyComplete},
		Alphas:   []float64{1, 2},
	}
}

// fixtureRoot builds (once) a root with a complete dataset under data/tiny,
// a complete sweep under sweeps/tiny, and an incomplete dataset under
// partial.
func fixtureRoot(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("fixture generation is slow")
	}
	fixOnce.Do(func() {
		fixDir, fixErr = os.MkdirTemp("", "queryd-fixture-")
		if fixErr != nil {
			return
		}
		ctx := context.Background()
		if _, fixErr = dataset.GenerateDir(ctx, filepath.Join(fixDir, "data", "tiny"), fixConfig(), nil); fixErr != nil {
			return
		}
		if _, fixErr = sweep.Run(ctx, filepath.Join(fixDir, "sweeps", "tiny"), fixSpec(), sweep.Options{Workers: 2}); fixErr != nil {
			return
		}
		_, fixErr = dataset.Create(filepath.Join(fixDir, "partial"), fixConfig())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fixDir != "" {
		os.RemoveAll(fixDir)
	}
	os.Exit(code)
}

// newTestServer stands up a queryd over the shared fixture root.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Root = fixtureRoot(t)
	return httptestServer(t, cfg)
}

// httptestServer stands up a queryd over cfg.Root.
func httptestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/catalog", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog: %s: %s", resp.Status, body)
	}
	var cat struct {
		Datasets []DatasetInfo `json:"datasets"`
		Sweeps   []SweepInfo   `json:"sweeps"`
	}
	if err := json.Unmarshal(body, &cat); err != nil {
		t.Fatalf("catalog decode: %v\n%s", err, body)
	}
	if len(cat.Datasets) != 2 {
		t.Fatalf("catalog datasets: %+v, want data/tiny and partial", cat.Datasets)
	}
	// Sorted by name: data/tiny before partial.
	if cat.Datasets[0].Name != "data/tiny" || !cat.Datasets[0].Complete || cat.Datasets[0].Digest == "" {
		t.Errorf("data/tiny row: %+v", cat.Datasets[0])
	}
	if !strings.Contains(cat.Datasets[0].Config, "hoststack on") {
		t.Errorf("data/tiny row does not surface the host-stack instrument: %+v", cat.Datasets[0])
	}
	if cat.Datasets[1].Name != "partial" || cat.Datasets[1].Complete || cat.Datasets[1].Digest != "" {
		t.Errorf("partial row: %+v", cat.Datasets[1])
	}
	if len(cat.Sweeps) != 1 || cat.Sweeps[0].Name != "sweeps/tiny" || !cat.Sweeps[0].Complete ||
		cat.Sweeps[0].ResultDigest == "" || cat.Sweeps[0].PointsDone != cat.Sweeps[0].PointsTotal {
		t.Errorf("sweeps: %+v", cat.Sweeps)
	}
}

func TestDatasetDetailAndRacks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/datasets/data/tiny", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail: %s: %s", resp.Status, body)
	}
	var detail struct {
		Info   DatasetInfo  `json:"info"`
		Config fleet.Config `json:"config"`
		Shards []struct {
			Region   string `json:"region"`
			Complete bool   `json:"complete"`
			Runs     int    `json:"runs"`
			Digest   string `json:"digest"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	want := fixConfig().WithDefaults()
	if detail.Config.Seed != want.Seed || detail.Info.Racks == 0 {
		t.Errorf("detail: %+v", detail.Info)
	}
	if len(detail.Shards) != detail.Info.ShardsTotal {
		t.Errorf("shard table has %d rows, want %d", len(detail.Shards), detail.Info.ShardsTotal)
	}
	for _, sh := range detail.Shards {
		if !sh.Complete || sh.Digest == "" || sh.Runs == 0 {
			t.Errorf("shard row: %+v", sh)
		}
	}

	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/racks", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("racks: %s", resp.Status)
	}
	var metas []fleet.RackMeta
	if err := json.Unmarshal(body, &metas); err != nil {
		t.Fatal(err)
	}
	if len(metas) != detail.Info.Racks {
		t.Errorf("%d rack metas, want %d", len(metas), detail.Info.Racks)
	}
}

// decodeNDJSON parses a streaming response body into lines.
func decodeNDJSON(t *testing.T, body []byte) []wireLine {
	t.Helper()
	var out []wireLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l wireLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	if _, err := r.EachRun(func(*fleet.RunSummary, fleet.Class) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, ts.URL+"/v1/datasets/data/tiny/runs", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runs: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := decodeNDJSON(t, body)
	if len(lines) != total {
		t.Fatalf("streamed %d runs, reader walk has %d", len(lines), total)
	}

	// Filters narrow the stream.
	region := lines[0].Run.Region
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs?region="+region, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered runs: %s", resp.Status)
	}
	filtered := decodeNDJSON(t, body)
	if len(filtered) == 0 || len(filtered) >= total {
		t.Errorf("region filter returned %d of %d", len(filtered), total)
	}
	for _, l := range filtered {
		if l.Run.Region != region {
			t.Fatalf("filter leak: %+v", l.Run)
		}
	}
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs?limit=3", nil)
	if ln := decodeNDJSON(t, body); resp.StatusCode != http.StatusOK || len(ln) != 3 {
		t.Errorf("limit=3 returned %d lines (%s)", len(ln), resp.Status)
	}
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs?rack=zero", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad rack filter: %s: %s", resp.Status, body)
	}
	// A class that names no class can match nothing: refused, not walked.
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs?class=RegA-Typcal", nil)
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("ETag") != "" {
		t.Errorf("misspelt class filter: %s (ETag %q): %s", resp.Status, resp.Header.Get("ETag"), body)
	}
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs?class="+fleet.ClassB.String(), nil)
	if resp.StatusCode != http.StatusOK || len(decodeNDJSON(t, body)) == 0 {
		t.Errorf("class filter: %s with %d body bytes", resp.Status, len(body))
	}

	// The ETag revalidates: unchanged store + same query → 304, no body.
	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/runs", nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("stream response has no ETag")
	}
	resp, body = get(t, ts.URL+"/v1/datasets/data/tiny/runs", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("revalidation: %s with %d body bytes", resp.Status, len(body))
	}
	// A different query is a different resource with a different validator.
	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/runs?limit=3", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("different query matched old ETag: %s", resp.Status)
	}
}

func TestStreamRackRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	meta := r.RackMetas()[0]
	want, err := r.RackRuns(meta.Region, meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/datasets/data/tiny/racks/%s/%d/runs", ts.URL, meta.Region, meta.ID)
	resp, body := get(t, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rack runs: %s: %s", resp.Status, body)
	}
	lines := decodeNDJSON(t, body)
	if len(lines) != len(want) {
		t.Fatalf("rack stream has %d runs, RackRuns %d", len(lines), len(want))
	}
	for _, l := range lines {
		if l.Class != meta.Class.String() {
			t.Fatalf("rack stream class %q, want %q", l.Class, meta.Class)
		}
	}
	etag := resp.Header.Get("ETag")

	// A rack that does not exist is a 404 and nothing else: no validator, no
	// 304 to a conditional request, and no claim on a concurrency slot.
	missing := ts.URL + "/v1/datasets/data/tiny/racks/nowhere/0/runs"
	resp, _ = get(t, missing, nil)
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("ETag") != "" {
		t.Errorf("missing rack: %s with ETag %q", resp.Status, resp.Header.Get("ETag"))
	}
	for _, inm := range []string{etag, "*"} {
		if resp, _ = get(t, missing, map[string]string{"If-None-Match": inm}); resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing rack, If-None-Match %s: %s", inm, resp.Status)
		}
	}
	one, tsOne := newTestServer(t, Config{MaxConcurrent: 1})
	one.sem <- struct{}{} // the server's one slot is taken
	if resp, _ = get(t, tsOne.URL+"/v1/datasets/data/tiny/racks/nowhere/0/runs", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing rack on a server at capacity: %s", resp.Status)
	}
	known := strings.Replace(url, ts.URL, tsOne.URL, 1)
	if resp, _ = get(t, known, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("rack stream on a server at capacity: %s", resp.Status)
	}
	<-one.sem
	if resp, _ = get(t, known, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("rack stream after the slot was freed: %s", resp.Status)
	}
}

// localRender renders an experiment directly, the way cmd/experiments does
// — the server's cached render must be byte-identical.
func localRender(t *testing.T, src experiments.Source, id string) []byte {
	t.Helper()
	res, err := experiments.Run(id, src)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	res.Render(&buf)
	return []byte(buf.String())
}

func TestDatasetRenderCacheAndETag(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	id := experiments.IDs()[0]

	resp, first := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("render: %s: %s", resp.Status, first)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first render X-Cache=%q", xc)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("render has no ETag")
	}

	resp, second := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id, nil)
	if xc := resp.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second render X-Cache=%q", xc)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("repeated render is not byte-identical")
	}

	// The served bytes match a local render over the same store.
	r, err := dataset.Open(filepath.Join(fixtureRoot(t), "data", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if want := localRender(t, r, id); !bytes.Equal(first, want) {
		t.Fatalf("server render differs from local render:\n--- server\n%s\n--- local\n%s", first, want)
	}

	// RFC 9110 §13.1.2: If-None-Match compares weakly — a compressing proxy
	// hands our strong tag back as W/"…" — takes a list, and "*" matches any
	// current representation.
	for _, inm := range []string{etag, "W/" + etag, `"other", W/` + etag, "*"} {
		resp, body := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
			t.Errorf("render revalidation with %s: %s, %d body bytes, ETag %q", inm, resp.Status, len(body), resp.Header.Get("ETag"))
		}
	}
	for _, inm := range []string{`"other"`, `W/"other"`, strings.Trim(etag, `"`), "W/W/" + etag} {
		resp, _ := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id, map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("If-None-Match %s matched %s: %s", inm, etag, resp.Status)
		}
	}

	if snap := s.Metrics().Snapshot(); snap.CacheHits < 1 || snap.CacheMisses < 1 || snap.RendersBuilt != 1 {
		t.Errorf("metrics after hit+miss: %+v", snap)
	}

	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/renders/no-such-figure", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown render: %s", resp.Status)
	}
	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id+"?format=yaml", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: %s", resp.Status)
	}

	// md and json formats serve and differ from text.
	_, md := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id+"?format=md", nil)
	var parsed []*experiments.Result
	_, js := get(t, ts.URL+"/v1/datasets/data/tiny/renders/"+id+"?format=json", nil)
	if err := json.Unmarshal(js, &parsed); err != nil || len(parsed) != 1 || parsed[0].ID != id {
		t.Errorf("json render: err=%v parsed=%d", err, len(parsed))
	}
	if bytes.Equal(md, first) {
		t.Error("md render identical to text render")
	}
}

// TestHostStackRender serves the host-stack experiment over the instrumented
// fixture: the table must carry real per-class latency rows (not the
// "no series" note) and revalidate via ETag like every other render.
func TestHostStackRender(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/datasets/data/tiny/renders/hoststack", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hoststack render: %s: %s", resp.Status, body)
	}
	if strings.Contains(string(body), "no host-stack series") {
		t.Fatalf("render fell back to the uninstrumented note:\n%s", body)
	}
	for _, class := range []string{"RegA-Typical", "RegA-High", "RegB"} {
		if !strings.Contains(string(body), class) {
			t.Errorf("render missing class row %s:\n%s", class, body)
		}
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("hoststack render has no ETag")
	}
	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/renders/hoststack", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("hoststack revalidation: %s", resp.Status)
	}
}

func TestSweepRender(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/v1/sweeps/sweeps/tiny", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep info: %s: %s", resp.Status, body)
	}

	resp, served := get(t, ts.URL+"/v1/sweeps/sweeps/tiny/renders/whatif-grid", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep render: %s: %s", resp.Status, served)
	}
	res, err := sweep.Open(filepath.Join(fixtureRoot(t), "sweeps", "tiny"))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	for _, r := range sweep.Report(res) {
		if r.ID == "whatif-grid" {
			r.Render(&buf)
		}
	}
	if want := buf.String(); string(served) != want {
		t.Fatalf("sweep render differs from local report:\n--- server\n%s\n--- local\n%s", served, want)
	}

	etag := resp.Header.Get("ETag")
	resp, _ = get(t, ts.URL+"/v1/sweeps/sweeps/tiny/renders/whatif-grid", map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("sweep revalidation: %s", resp.Status)
	}
	resp, _ = get(t, ts.URL+"/v1/sweeps/sweeps/tiny/renders/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep render: %s", resp.Status)
	}
}

func TestIncompleteDatasetConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/datasets/partial/runs", "/v1/datasets/partial/renders/tab1"} {
		resp, body := get(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s on incomplete dataset: %s: %s", path, resp.Status, body)
		}
	}
}

func TestNameEscapesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Path traversal must not resolve; the default mux also normalizes, so
	// exercise the catalog layer directly too.
	if _, err := NewCatalog(fixtureRoot(t)).Dataset("../outside"); err == nil {
		t.Error("catalog resolved a traversal name")
	}
	resp, _ := get(t, ts.URL+"/v1/datasets/", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("empty name: %s", resp.Status)
	}
}

// blockingSource gates EachRunCtx walks so tests can hold a streaming
// request in flight deterministically.
type blockingSource struct {
	DatasetSource
	release chan struct{}
	started chan struct{}
}

func (b *blockingSource) EachRunCtx(ctx context.Context, fn func(*fleet.RunSummary, fleet.Class) error) (int, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return b.DatasetSource.EachRunCtx(ctx, fn)
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	gate := &blockingSource{release: make(chan struct{}), started: make(chan struct{}, 1)}
	s.Catalog().openDataset = func(dir string) (DatasetSource, error) {
		src, err := dataset.Open(dir)
		if err != nil {
			return nil, err
		}
		gate.DatasetSource = src
		return gate, nil
	}

	done := make(chan int, 1)
	go func() {
		resp, _ := get(t, ts.URL+"/v1/datasets/data/tiny/runs", nil)
		done <- resp.StatusCode
	}()
	select {
	case <-gate.started:
	case <-time.After(10 * time.Second):
		t.Fatal("first stream never started")
	}

	resp, body := get(t, ts.URL+"/v1/datasets/data/tiny/runs", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream at capacity: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if snap := s.Metrics().Snapshot(); snap.Throttled != 1 {
		t.Errorf("throttled counter: %+v", snap)
	}

	close(gate.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held stream finished with %d", code)
	}

	// Capacity freed: the same request now serves.
	resp, _ = get(t, ts.URL+"/v1/datasets/data/tiny/runs?limit=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after release: %s", resp.Status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/v1/catalog", nil)
	get(t, ts.URL+"/v1/datasets/data/tiny/runs?limit=1", nil)
	get(t, ts.URL+"/v1/datasets/data/tiny/runs?limit=1", nil) // the first shard again: a shard-cache hit
	get(t, ts.URL+"/v1/sweeps/sweeps/tiny/renders/whatif-grid", nil)
	get(t, ts.URL+"/v1/sweeps/sweeps/tiny/renders/whatif-grid?format=md", nil) // a new render of the opened sweep
	resp, body := get(t, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	for _, want := range []string{
		`queryd_requests_total{route="catalog",code="200"}`,
		`queryd_requests_total{route="datasets",code="200"}`,
		"queryd_request_seconds_bucket",
		"queryd_streamed_runs_total 2",
		"queryd_inflight_requests",
		"queryd_cache_hits_total 0", // the render cache's counters are its own
		"queryd_shard_cache_hits_total 1",
		"queryd_shard_cache_misses_total 1",
		"queryd_shard_cache_evictions_total 0",
		"queryd_shard_cache_bytes ",
		"queryd_sweep_cache_hits_total 1",
		"queryd_sweep_cache_misses_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "queryd_shard_cache_bytes 0") {
		t.Errorf("shard cache holds a rack but reports no bytes\n%s", body)
	}
	if snap := s.Metrics().Snapshot(); snap.ShardHits != 1 || snap.ShardMisses != 1 || snap.ShardEvicts != 0 || snap.CacheHits != 0 || snap.CacheMisses != 2 {
		t.Errorf("snapshot after one shard miss and one hit, and two sweep renders: %+v", snap)
	}
}

func TestGracefulDrainServesInflightStream(t *testing.T) {
	s := New(Config{Root: fixtureRoot(t)})
	gate := &blockingSource{release: make(chan struct{}), started: make(chan struct{}, 1)}
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

	done := make(chan int, 1)
	lines := make(chan int, 1)
	go func() {
		resp, body := get(t, ts.URL+"/v1/datasets/data/tiny/runs", nil)
		done <- resp.StatusCode
		lines <- len(decodeNDJSON(t, body))
	}()
	<-gate.started

	// Initiate shutdown while the stream is parked, then release it; the
	// client must still receive the complete body.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- ts.Config.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond)
	close(gate.release)

	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight stream during drain: %d", code)
	}
	if n := <-lines; n == 0 {
		t.Fatal("drained stream delivered no lines")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
