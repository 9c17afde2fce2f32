// Package queryd is the read side of the distributed pipeline: a
// long-running HTTP service that discovers completed sharded datasets
// (internal/dataset) and sweep result stores (internal/sweep) under a root
// directory and serves them to many concurrent clients as
//
//   - catalog endpoints — what exists, its config, digests, and shard/point
//     status;
//   - streaming query endpoints — NDJSON walks of a dataset's runs that go
//     through the same streaming Source interface the experiments use, one
//     rack shard at a time, so a request never holds more than the rack it is
//     on no matter how many clients are connected;
//   - cached renders — the paper's figures/tables (internal/experiments)
//     and the §9 what-if reports (sweep.Report), formatted at most once per
//     (store digest, render, params) behind an LRU + singleflight cache
//     whose keys double as ETags.
//
// Under both sit the decoded-shard cache (shardcache.go) and the tables cache
// (datasetTables, sweepReport): a sealed store is immutable and
// digest-fingerprinted, so a shard is read, verified, decoded and encoded to
// JSON once per file state, and a render's tables are computed once per store
// state, whatever the format asked for and however often its body is evicted.
// Server memory is the cache budgets, whatever the client count.
//
// It behaves like a service, not a script: bounded concurrency with 429 +
// Retry-After backpressure, per-request timeouts threaded into shard walks,
// SIGTERM graceful drain (cmd/queryd), and /metrics.
package queryd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/httpserve"
	"repro/internal/sweep"
	"repro/internal/txtplot"
)

// Config tunes the service. The zero value serves with sane defaults.
type Config struct {
	// Root is the directory scanned for datasets and sweep stores.
	Root string
	// MaxConcurrent bounds simultaneously served data requests (streams and
	// renders; catalog and metrics endpoints are always served). Beyond it,
	// requests get 429 + Retry-After. Default 16.
	MaxConcurrent int
	// RequestTimeout caps one data request end to end; it is threaded as a
	// context into shard walks and render computation. Default 2m.
	RequestTimeout time.Duration
	// CacheBytes bounds the render cache. Default 64 MiB; negative turns off
	// all three caches — render, decoded-shard and tables — leaving the one
	// read path with no hits.
	CacheBytes int64
	// Logger, when set, logs one line per request.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	return c
}

// Server serves the query surface over one Catalog. Create with New, expose
// via Handler.
type Server struct {
	cfg     Config
	catalog *Catalog
	cache   *cache[*entry]
	tables  *cache[tableSet]
	metrics *Metrics
	sem     chan struct{}
}

// New builds a Server over root.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	shardBytes, tablesBytes := int64(shardCacheBytes), int64(tablesCacheBytes)
	if cfg.CacheBytes < 0 {
		shardBytes, tablesBytes = 0, 0
	}
	s := &Server{
		cfg:     cfg,
		catalog: newCatalog(cfg.Root, newCache[shardRuns](shardBytes)),
		cache:   newCache[*entry](cfg.CacheBytes),
		tables:  newCache[tableSet](tablesBytes),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
	}
	s.metrics = &Metrics{routes: map[string]*routeStats{}, renders: s.cache, shards: s.catalog.shards, tables: s.tables}
	return s
}

// Metrics exposes the server's instrumentation (tests and cmd/queryd).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Catalog exposes the server's catalog (cmd/queryd's startup listing; tests
// swap the dataset opener beneath the shard cache).
func (s *Server) Catalog() *Catalog { return s.catalog }

// Handler returns the full HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.WriteTo(w)
	})
	mux.HandleFunc("GET /v1/catalog", s.instrumented("catalog", s.handleCatalog))
	mux.HandleFunc("GET /v1/datasets/", s.instrumented("datasets", s.handleDatasets))
	mux.HandleFunc("GET /v1/sweeps/", s.instrumented("sweeps", s.handleSweeps))
	return httpserve.Logged(s.cfg.Logger, mux)
}

// instrumented wraps a handler with the request counter, latency histogram,
// and in-flight gauge.
func (s *Server) instrumented(route string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sw := &statusRecorder{ResponseWriter: w}
		h(sw, r)
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.Request(route, code, time.Since(start))
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// acquire claims a data-request slot; on a full semaphore it writes the 429
// and returns false. Backpressure is deliberate and immediate — a client is
// better served by an honest Retry-After than by an unbounded queue.
func (s *Server) acquire(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.metrics.throttled.Add(1)
		w.Header().Set("Retry-After", "1")
		httpserve.Error(w, http.StatusTooManyRequests, "server at capacity (%d concurrent data requests); retry shortly", s.cfg.MaxConcurrent)
		return nil, false
	}
}

// handleCatalog lists everything discovered under the root.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	dss, sws, err := s.catalog.Refresh()
	if err != nil {
		httpserve.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	httpserve.WriteJSON(w, map[string]any{
		"root":     s.cfg.Root,
		"datasets": orEmptyDS(dss),
		"sweeps":   orEmptySW(sws),
	})
}

func orEmptyDS(v []DatasetInfo) []DatasetInfo {
	if v == nil {
		return []DatasetInfo{}
	}
	return v
}

func orEmptySW(v []SweepInfo) []SweepInfo {
	if v == nil {
		return []SweepInfo{}
	}
	return v
}

// splitRoute parses the path remainder after /v1/datasets/ (or /v1/sweeps/)
// into the catalog name and the action suffix. Dataset names may contain
// slashes (nested directories), so the action words — runs, racks, renders —
// are reserved: the first occurrence past the leading segment splits the
// path. Routes: <name>, <name>/racks, <name>/runs, <name>/renders/<id>,
// <name>/racks/<region>/<id>/runs.
func splitRoute(rest string) (name, action string, args []string) {
	rest = strings.Trim(rest, "/")
	parts := strings.Split(rest, "/")
	for i := 1; i < len(parts); i++ {
		switch parts[i] {
		case "runs", "racks", "renders":
			return strings.Join(parts[:i], "/"), parts[i], parts[i+1:]
		}
	}
	return rest, "", nil
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	name, action, args := splitRoute(rest)
	if name == "" {
		httpserve.Error(w, http.StatusNotFound, "missing dataset name")
		return
	}
	e, err := s.catalog.Dataset(name)
	if err != nil {
		httpserve.Error(w, http.StatusNotFound, "%v", err)
		return
	}
	switch {
	case action == "":
		s.datasetDetail(w, e)
	case action == "racks" && len(args) == 0:
		httpserve.WriteJSON(w, e.src.RackMetas())
	case action == "runs" && len(args) == 0:
		s.streamRuns(w, r, e)
	case action == "racks" && len(args) == 3 && args[2] == "runs":
		s.streamRackRuns(w, r, e, args[0], args[1])
	case action == "renders" && len(args) == 1:
		if !requireComplete(w, e) {
			return
		}
		id := args[0]
		s.render(w, r, e.info.Digest, "render", id, renderIDs, func(ctx context.Context) ([]*experiments.Result, error) {
			return s.datasetTables(ctx, e, id)
		})
	default:
		httpserve.Error(w, http.StatusNotFound, "unknown dataset route %q", rest)
	}
}

// datasetDetail is the per-dataset status view: catalog info, the full
// normalized config, and the shard table.
func (s *Server) datasetDetail(w http.ResponseWriter, e *datasetEntry) {
	type shardStatus struct {
		Region    string `json:"region"`
		ID        int    `json:"id"`
		Complete  bool   `json:"complete"`
		Runs      int    `json:"runs"`
		Collected int    `json:"collected"`
		Digest    string `json:"digest,omitempty"`
	}
	shards := e.src.Shards()
	out := make([]shardStatus, len(shards))
	for i, sh := range shards {
		out[i] = shardStatus{Region: sh.Region, ID: sh.ID, Complete: sh.Complete,
			Runs: sh.Runs, Collected: sh.Collected, Digest: sh.Digest}
	}
	httpserve.WriteJSON(w, map[string]any{
		"info":   e.info,
		"config": e.src.Config(),
		"shards": out,
	})
}

// requireComplete rejects queries against a dataset still being generated.
func requireComplete(w http.ResponseWriter, e *datasetEntry) bool {
	if !e.info.Complete {
		httpserve.Error(w, http.StatusConflict,
			"dataset %q is incomplete (%d/%d shards); resume its generation first",
			e.info.Name, e.info.ShardsDone, e.info.ShardsTotal)
		return false
	}
	return true
}

// etagFor derives the strong validator for a response: sha256 over the
// store digest plus the render/query key. The store digest covers the exact
// shard bytes, so the ETag changes exactly when the data or the question
// does.
func etagFor(storeDigest, key string) string {
	h := sha256.Sum256([]byte(storeDigest + "|" + key))
	return `"` + hex.EncodeToString(h[:]) + `"`
}

// notModified handles If-None-Match by RFC 9110 §13.1.2: weak comparison (a
// proxy that compresses turns our strong tag into W/"…"), and "*" matches any
// current representation. Returns true when a 304 was written. Only a 304 or
// a 200 carries the tag: an error response has no representation to name.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	for _, v := range r.Header.Values("If-None-Match") {
		for _, cand := range strings.Split(v, ",") {
			cand = strings.TrimSpace(cand)
			if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
				w.Header().Set("ETag", etag)
				w.WriteHeader(http.StatusNotModified)
				return true
			}
		}
	}
	return false
}

// runFilter is the streaming query's predicate, parsed from query params.
type runFilter struct {
	region string
	rack   int
	hasRak bool
	hour   int
	hasHr  bool
	class  string
	limit  int
}

func parseFilter(r *http.Request) (runFilter, error) {
	q := r.URL.Query()
	f := runFilter{region: q.Get("region"), class: q.Get("class"), rack: -1, hour: -1}
	switch f.class {
	case "", fleet.ClassATypical.String(), fleet.ClassAHigh.String(), fleet.ClassB.String():
	default:
		// No run can match; refuse before walking every shard to say so.
		return f, fmt.Errorf("bad class %q (%s, %s, %s)", f.class, fleet.ClassATypical, fleet.ClassAHigh, fleet.ClassB)
	}
	if v := q.Get("rack"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, fmt.Errorf("bad rack %q", v)
		}
		f.rack, f.hasRak = n, true
	}
	if v := q.Get("hour"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, fmt.Errorf("bad hour %q", v)
		}
		f.hour, f.hasHr = n, true
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.limit = n
	}
	return f, nil
}

// shard is the part of the predicate a rack decides for all of its runs, known
// from the manifest and RackMetas before its shard is touched.
func (f *runFilter) shard(region string, id int, c fleet.Class) bool {
	return (f.region == "" || region == f.region) && (!f.hasRak || id == f.rack) &&
		(f.class == "" || c.String() == f.class)
}

func (f *runFilter) match(run *fleet.RunSummary, c fleet.Class) bool {
	return f.shard(run.Region, run.RackID, c) && (!f.hasHr || run.Hour == f.hour)
}

// key canonicalizes the filter for ETags.
func (f *runFilter) key() string {
	return fmt.Sprintf("region=%s&rack=%d,%v&hour=%d,%v&class=%s&limit=%d",
		f.region, f.rack, f.hasRak, f.hour, f.hasHr, f.class, f.limit)
}

// appendLine appends one NDJSON record of a streaming query,
// {"class":…,"run":…}, around a run encodeRun encoded. The class names are
// plain ASCII, so quoting one is all the escaping it needs.
func appendLine(buf []byte, c fleet.Class, run []byte) []byte {
	buf = append(buf, `{"class":"`...)
	buf = append(buf, c.String()...)
	buf = append(buf, `","run":`...)
	buf = append(buf, run...)
	return append(buf, "}\n"...)
}

// errStreamDone aborts a walk early once the line limit is reached.
var errStreamDone = errors.New("queryd: stream limit reached")

// streamRuns walks the dataset shard by shard through the streaming reader
// and writes one JSON line per run. The response flushes after every line,
// so clients see data as the walk progresses and the request never holds
// more than the current rack's shard plus one encoded line of its own.
func (s *Server) streamRuns(w http.ResponseWriter, r *http.Request, e *datasetEntry) {
	if !requireComplete(w, e) {
		return
	}
	f, err := parseFilter(r)
	if err != nil {
		httpserve.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := etagFor(e.info.Digest, "runs|"+f.key())
	if notModified(w, r, etag) {
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Store-Digest", e.info.Digest)
	flusher, _ := w.(http.Flusher)
	cw := &countingWriter{w: w}
	lines := int64(0)
	var buf []byte

	_, err = e.src.walk(ctx, &f, func(sh shardRuns, i int, c fleet.Class) error {
		buf = appendLine(buf[:0], c, sh.lines[i])
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		lines++
		if flusher != nil {
			flusher.Flush()
		}
		if f.limit > 0 && lines >= int64(f.limit) {
			return errStreamDone
		}
		return nil
	})
	s.metrics.bytesStreamed.Add(cw.n)
	s.metrics.runsStreamed.Add(lines)
	if err != nil && !errors.Is(err, errStreamDone) {
		if cw.n == 0 { // nothing sent yet (a shard is verified whole first): answer a status
			w.Header().Del("ETag")
			httpserve.Error(w, http.StatusInternalServerError, "%v", err)
			return
		}
		// Headers are gone; the best a stream can do is truncate. A client
		// detects it by the missing final newline... which NDJSON can't
		// express either, so log it server-side and drop the connection.
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("stream %s aborted after %d lines: %v", e.info.Name, lines, err)
		}
		panic(http.ErrAbortHandler)
	}
}

// streamRackRuns serves one rack's runs as NDJSON — the drill-down query. The
// rack is resolved before anything else: one that does not exist has no
// validator to offer and takes no concurrency slot. The rack's lines are
// already whole in memory, so its body is assembled in a pooled buffer and
// sent with its Content-Length in one write, not chunked line by line.
func (s *Server) streamRackRuns(w http.ResponseWriter, r *http.Request, e *datasetEntry, region, idStr string) {
	if !requireComplete(w, e) {
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpserve.Error(w, http.StatusBadRequest, "bad rack id %q", idStr)
		return
	}
	class, ok := e.src.classes[rackKey{region, id}]
	if !ok {
		httpserve.Error(w, http.StatusNotFound, "no rack %s/%d in %q", region, id, e.info.Name)
		return
	}
	etag := etagFor(e.info.Digest, fmt.Sprintf("rack|%s/%d", region, id))
	if notModified(w, r, etag) {
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()

	sh, err := e.src.rackLines(region, id)
	if err != nil {
		httpserve.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	bp := rackBodies.Get().(*[]byte)
	defer func() { // not before Write has returned: the server may still read body
		if cap(*bp) <= maxPooledRackBody {
			rackBodies.Put(bp)
		}
	}()
	body := (*bp)[:0]
	for _, line := range sh.lines {
		body = appendLine(body, class, line)
	}
	*bp = body
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Store-Digest", e.info.Digest)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	n, err := w.Write(body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	s.metrics.bytesStreamed.Add(int64(n))
	s.metrics.runsStreamed.Add(int64(len(sh.lines)))
}

// rackBodies recycles the buffers rack streams assemble their bodies in. A
// fresh buffer per request keeps the median gain of the one write but gives
// back its tail latency and throughput.
var rackBodies = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRackBody is the largest buffer rackBodies keeps; an outsized
// rack's is left to the collector rather than held for every later one.
const maxPooledRackBody = 1 << 20

// renderFormats maps the format query param to a content type.
var renderFormats = map[string]string{
	"text": "text/plain; charset=utf-8",
	"md":   "text/markdown; charset=utf-8",
	"json": "application/json",
}

// renderResults encodes experiment results in the requested format.
func renderResults(results []*experiments.Result, format string) ([]byte, error) {
	var buf strings.Builder
	switch format {
	case "text":
		for _, res := range results {
			res.Render(&buf)
		}
	case "md":
		for _, res := range results {
			res.RenderMarkdown(&buf)
		}
	case "json":
		b, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	default:
		return nil, fmt.Errorf("unknown format %q (text, md, json)", format)
	}
	return []byte(buf.String()), nil
}

// renderIDs are the experiments a dataset render may name. The registry is
// filled by the experiments package's init functions, so it is fixed before
// this package's variables are.
var renderIDs = experiments.IDs()

// render serves one render (or "all") of a complete store through the render
// cache. kind ("render" or "sweep-render") scopes the cache key and the ETag
// to the store's render family, ids are the renders it knows, and tables
// returns one id's results from the tables cache on a body miss, under the
// request's timeout: a miss formats, and computes only what the tables cache
// lacks.
func (s *Server) render(w http.ResponseWriter, r *http.Request, digest, kind, id string, ids []string,
	tables func(ctx context.Context) ([]*experiments.Result, error)) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	ct, ok := renderFormats[format]
	if !ok {
		httpserve.Error(w, http.StatusBadRequest, "unknown format %q (text, md, json)", format)
		return
	}
	if id != "all" && !slices.Contains(ids, id) {
		httpserve.Error(w, http.StatusNotFound, "unknown %s %q (have %v and \"all\")", strings.ReplaceAll(kind, "-", " "), id, ids)
		return
	}
	key := kind + "|" + id + "|" + format
	etag := etagFor(digest, key)
	if notModified(w, r, etag) {
		return
	}
	release, ok := s.acquire(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	ent, hit, err := s.cache.getOrFill(digest+"|"+key, func() (*entry, error) {
		results, err := tables(ctx)
		if err != nil {
			return nil, err
		}
		body, err := renderResults(results, format)
		if err != nil {
			return nil, err
		}
		s.metrics.rendersBuilt.Add(1)
		return &entry{Body: body, ContentType: ct, ETag: etag}, nil
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			httpserve.Error(w, http.StatusGatewayTimeout, "render timed out: %v", err)
			return
		}
		httpserve.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", ent.ContentType)
	w.Header().Set("ETag", ent.ETag)
	w.Header().Set("X-Store-Digest", digest)
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(ent.Body)
}

// sweepRenderIDs are the §9 what-if tables sweep.Report produces, in its
// order.
var sweepRenderIDs = []string{"whatif-grid", "whatif-alpha", "whatif-policy"}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	name, action, args := splitRoute(rest)
	if name == "" {
		httpserve.Error(w, http.StatusNotFound, "missing sweep name")
		return
	}
	e, dir, err := s.catalog.Sweep(name)
	if err != nil {
		httpserve.Error(w, http.StatusNotFound, "%v", err)
		return
	}
	switch {
	case action == "":
		httpserve.WriteJSON(w, e.info)
	case action == "renders" && len(args) == 1:
		if !e.info.Complete {
			httpserve.Error(w, http.StatusConflict,
				"sweep %q is incomplete (%d/%d points); resume it with cmd/sweep first",
				e.info.Name, e.info.PointsDone, e.info.PointsTotal)
			return
		}
		id := args[0]
		s.render(w, r, e.info.ResultDigest, "sweep-render", id, sweepRenderIDs, func(context.Context) ([]*experiments.Result, error) {
			tables, err := s.sweepReport(dir, e)
			if id == "all" || err != nil {
				return tables, err
			}
			i := slices.Index(sweepRenderIDs, id)
			return tables[i : i+1], nil
		})
	default:
		httpserve.Error(w, http.StatusNotFound, "unknown sweep route %q", rest)
	}
}

// tablesCacheBytes budgets the tables cache. A constant for the reason
// shardCacheBytes is one: a render's tables are a few KB whatever the size of
// the store they summarise.
const tablesCacheBytes = 4 << 20

// tableSet is one render's results as computed from one store state: a
// dataset render's experiments, or a sealed sweep's whole report. It is shared
// read-only by every body formatted from it.
type tableSet []*experiments.Result

// size charges the tables their content: every string's bytes and header,
// every row, plot series and plot point. One rule for both render families,
// derived from what is held, not from the store it was computed from.
func (t tableSet) size() int64 {
	strs := func(ss []string) int64 {
		n := int64(cap(ss)) * int64(unsafe.Sizeof(""))
		for _, s := range ss {
			n += int64(len(s))
		}
		return n
	}
	n := int64(cap(t)) * int64(unsafe.Sizeof(&experiments.Result{}))
	for _, r := range t {
		n += int64(unsafe.Sizeof(*r)) + int64(len(r.ID)+len(r.Title)+len(r.PlotOpts.XLabel)+len(r.PlotOpts.YLabel)) +
			strs(r.Header) + strs(r.Notes) + int64(cap(r.Rows))*int64(unsafe.Sizeof(r.Header)) +
			int64(cap(r.Plots))*int64(unsafe.Sizeof(txtplot.Series{}))
		for _, row := range r.Rows {
			n += strs(row)
		}
		for _, p := range r.Plots {
			n += int64(len(p.Name)) + int64(cap(p.Points))*int64(unsafe.Sizeof(txtplot.Point{}))
		}
	}
	return n
}

// datasetTables returns one dataset render's results, shared and read-only,
// running the experiment at most once per store state: the key is the store
// digest and the id, not the format, so the other formats of an id, and a
// body rebuilt after its eviction, format the one computation. A run that
// fails (a refusal, a corrupt shard, the deadline) is not kept.
func (s *Server) datasetTables(ctx context.Context, e *datasetEntry, id string) ([]*experiments.Result, error) {
	t, _, err := s.tables.getOrFill(e.info.Digest+"|render|"+id, func() (tableSet, error) {
		src := experiments.WithContext(ctx, e.src)
		if id == "all" {
			return experiments.RunAll(src)
		}
		res, err := experiments.Run(id, src)
		return tableSet{res}, err
	})
	return t, err
}

// sweepReport returns the sweep's what-if tables, shared and read-only,
// opening the store and reporting it at most once per state of its files:
// the key is the sealed ResultDigest plus every point's digest, size and
// mtime, from one stat per point on every call. Every fill is sweep.Open,
// which re-hashes each point against the manifest, so a point replaced,
// rewritten or deleted under a running server misses and fails Open's check
// as it always did.
func (s *Server) sweepReport(dir string, e *sweepEntry) ([]*experiments.Result, error) {
	open := func() (tableSet, error) {
		res, err := sweep.Open(dir)
		if err != nil {
			return nil, err
		}
		if res.Manifest.ResultDigest != e.info.ResultDigest {
			return nil, fmt.Errorf("queryd: sweep %q was resealed while it was being opened", e.info.Name)
		}
		return sweep.Report(res), nil
	}
	key := []byte(e.info.ResultDigest)
	for _, p := range e.points {
		fi, err := os.Stat(filepath.Join(dir, p.File))
		if err != nil {
			return open() // its error for a point that is gone; nothing is cached
		}
		key = fmt.Appendf(key, "|%s|%d|%d", p.Digest, fi.Size(), fi.ModTime().UnixNano())
	}
	t, _, err := s.tables.getOrFill(string(key), open)
	return t, err
}
