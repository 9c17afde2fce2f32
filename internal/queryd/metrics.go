package queryd

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the fixed histogram upper bounds, in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// routeStats accumulates one route's request counters.
type routeStats struct {
	byCode  map[int]int64
	buckets []int64 // len(latencyBuckets)+1; last is +Inf
	sum     float64
	count   int64
}

// Metrics is queryd's instrumentation: request counts and latency
// histograms per route, an in-flight gauge, streamed-byte counters, and the
// render, decoded-shard and tables caches' traffic. It renders in the
// Prometheus text exposition format on /metrics, with no client library — the
// repo is stdlib-only.
// Each scalar is counted where it happens; mu guards only the route table.
type Metrics struct {
	mu     sync.Mutex
	routes map[string]*routeStats

	inflight, bytesStreamed, runsStreamed atomic.Int64
	throttled, rendersBuilt               atomic.Int64

	// The render cache, the decoded-shard cache and the tables cache count
	// their own traffic.
	renders *cache[*entry]
	shards  *cache[shardRuns]
	tables  *cache[tableSet]
}

// Request records one finished request on a route.
func (m *Metrics) Request(route string, code int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs := m.routes[route]
	if rs == nil {
		rs = &routeStats{byCode: make(map[int]int64), buckets: make([]int64, len(latencyBuckets)+1)}
		m.routes[route] = rs
	}
	rs.byCode[code]++
	sec := elapsed.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	rs.buckets[i]++
	rs.sum += sec
	rs.count++
}

// Snapshot is the counter view tests assert on. Cache* is the render cache
// alone; Shard* the decoded-shard cache.
type Snapshot struct {
	Inflight      int64
	BytesStreamed int64
	RunsStreamed  int64
	CacheHits     int64
	CacheMisses   int64
	CacheEvicts   int64
	Throttled     int64
	RendersBuilt  int64
	ShardHits     int64
	ShardMisses   int64
	ShardEvicts   int64
}

// Snapshot returns the scalar counters.
func (m *Metrics) Snapshot() Snapshot {
	renders, shards := m.renders.stats(), m.shards.stats()
	return Snapshot{
		Inflight:      m.inflight.Load(),
		BytesStreamed: m.bytesStreamed.Load(),
		RunsStreamed:  m.runsStreamed.Load(),
		CacheHits:     renders.hits,
		CacheMisses:   renders.misses,
		CacheEvicts:   renders.evicts,
		Throttled:     m.throttled.Load(),
		RendersBuilt:  m.rendersBuilt.Load(),
		ShardHits:     shards.hits,
		ShardMisses:   shards.misses,
		ShardEvicts:   shards.evicts,
	}
}

// WriteTo renders the registry in Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	renders, shards, tables := m.renders.stats(), m.shards.stats(), m.tables.stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	cw := &countingWriter{w: w}

	fmt.Fprintf(cw, "# TYPE queryd_requests_total counter\n")
	for _, route := range sortedKeys(m.routes) {
		rs := m.routes[route]
		for _, code := range sortedIntKeys(rs.byCode) {
			fmt.Fprintf(cw, "queryd_requests_total{route=%q,code=\"%d\"} %d\n", route, code, rs.byCode[code])
		}
	}

	fmt.Fprintf(cw, "# TYPE queryd_request_seconds histogram\n")
	for _, route := range sortedKeys(m.routes) {
		rs := m.routes[route]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += rs.buckets[i]
			fmt.Fprintf(cw, "queryd_request_seconds_bucket{route=%q,le=\"%g\"} %d\n", route, ub, cum)
		}
		cum += rs.buckets[len(latencyBuckets)]
		fmt.Fprintf(cw, "queryd_request_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, cum)
		fmt.Fprintf(cw, "queryd_request_seconds_sum{route=%q} %g\n", route, rs.sum)
		fmt.Fprintf(cw, "queryd_request_seconds_count{route=%q} %d\n", route, rs.count)
	}

	fmt.Fprintf(cw, "# TYPE queryd_inflight_requests gauge\nqueryd_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(cw, "# TYPE queryd_streamed_bytes_total counter\nqueryd_streamed_bytes_total %d\n", m.bytesStreamed.Load())
	fmt.Fprintf(cw, "# TYPE queryd_streamed_runs_total counter\nqueryd_streamed_runs_total %d\n", m.runsStreamed.Load())
	fmt.Fprintf(cw, "# TYPE queryd_cache_hits_total counter\nqueryd_cache_hits_total %d\n", renders.hits)
	fmt.Fprintf(cw, "# TYPE queryd_cache_misses_total counter\nqueryd_cache_misses_total %d\n", renders.misses)
	fmt.Fprintf(cw, "# TYPE queryd_cache_evictions_total counter\nqueryd_cache_evictions_total %d\n", renders.evicts)
	fmt.Fprintf(cw, "# TYPE queryd_throttled_total counter\nqueryd_throttled_total %d\n", m.throttled.Load())
	fmt.Fprintf(cw, "# TYPE queryd_renders_built_total counter\nqueryd_renders_built_total %d\n", m.rendersBuilt.Load())
	fmt.Fprintf(cw, "# TYPE queryd_shard_cache_hits_total counter\nqueryd_shard_cache_hits_total %d\n", shards.hits)
	fmt.Fprintf(cw, "# TYPE queryd_shard_cache_misses_total counter\nqueryd_shard_cache_misses_total %d\n", shards.misses)
	fmt.Fprintf(cw, "# TYPE queryd_shard_cache_evictions_total counter\nqueryd_shard_cache_evictions_total %d\n", shards.evicts)
	fmt.Fprintf(cw, "# TYPE queryd_shard_cache_bytes gauge\nqueryd_shard_cache_bytes %d\n", shards.bytes)
	fmt.Fprintf(cw, "# TYPE queryd_tables_cache_hits_total counter\nqueryd_tables_cache_hits_total %d\n", tables.hits)
	fmt.Fprintf(cw, "# TYPE queryd_tables_cache_misses_total counter\nqueryd_tables_cache_misses_total %d\n", tables.misses)
	fmt.Fprintf(cw, "# TYPE queryd_tables_cache_evictions_total counter\nqueryd_tables_cache_evictions_total %d\n", tables.evicts)
	fmt.Fprintf(cw, "# TYPE queryd_tables_cache_bytes gauge\nqueryd_tables_cache_bytes %d\n", tables.bytes)
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
