package queryd

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// entry is one cached render: the response body plus the headers that make
// it servable without recomputation.
type entry struct {
	Body        []byte
	ContentType string
	// ETag is the strong validator clients revalidate with; it derives from
	// the store digest + render key, so it changes exactly when the
	// underlying data or the requested render does.
	ETag string
}

func (e *entry) size() int64 {
	return int64(len(e.Body)) + int64(len(e.ETag)) + int64(len(e.ContentType))
}

// sized is what a cache holds: anything it can charge against its budget.
type sized interface{ size() int64 }

// cache is a byte-bounded LRU with singleflight fill: concurrent misses on
// one key collapse to a single computation, every waiter gets the one
// result. The server keeps three: rendered bodies (cache[*entry], keyed store
// digest | family | id | format), decoded shards (cache[shardRuns], keyed
// shard digest | file size | file mtime) and a render's tables
// (cache[tableSet], keyed store digest | render | id for a dataset, and the
// sealed digest plus digest | size | mtime per point for a sweep). Every key
// carries the content digest, so updated data naturally misses instead of
// serving stale bytes.
type cache[V sized] struct {
	mu    sync.Mutex
	max   int64 // byte budget; <=0 disables caching (every Get computes)
	used  int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element whose Value is *cacheItem[V]

	flights map[string]*flight[V]

	hits, misses, evicts atomic.Int64 // what /metrics reports, counted here
}

// cacheStats is one cache's traffic and resident bytes.
type cacheStats struct{ hits, misses, evicts, bytes int64 }

func (c *cache[V]) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{c.hits.Load(), c.misses.Load(), c.evicts.Load(), c.used}
}

type cacheItem[V sized] struct {
	key string
	ent V
}

// flight is one in-progress fill; followers wait on done.
type flight[V sized] struct {
	done chan struct{}
	ent  V
	err  error
}

func newCache[V sized](maxBytes int64) *cache[V] {
	return &cache[V]{
		max:     maxBytes,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight[V]),
	}
}

// store inserts an entry and evicts LRU items past the byte budget.
func (c *cache[V]) store(key string, ent V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A racing fill already stored it; keep the existing entry's recency.
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheItem[V]{key: key, ent: ent})
	c.items[key] = el
	c.used += ent.size()
	for c.used > c.max && c.ll.Len() > 1 {
		back := c.ll.Back()
		if back == nil {
			break
		}
		item := back.Value.(*cacheItem[V])
		c.ll.Remove(back)
		delete(c.items, item.key)
		c.used -= item.ent.size()
		c.evicts.Add(1)
	}
}

// getOrFill returns the cached entry for key, or computes it via fill.
// Concurrent callers for the same key share one fill (singleflight): the
// first caller computes, the rest block until it finishes and reuse its
// result. A failed fill is not cached; every waiter sees the error and the
// next request retries. hit reports whether the entry came from cache
// (false for the computing caller AND its followers — they waited on a
// computation, not a cache: each is counted a miss if the fill succeeded).
func (c *cache[V]) getOrFill(key string, fill func() (V, error)) (ent V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.hits.Add(1)
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheItem[V]).ent
		c.mu.Unlock()
		return ent, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil {
			c.misses.Add(1)
		}
		return f.ent, false, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// Release the flight however fill ends: net/http recovers a handler panic,
	// and a flight left behind would park every later request for the key on
	// done, each holding a concurrency slot. Followers get an error, the panic
	// continues in the leader, and the key is retryable.
	defer func() {
		p := recover()
		if p != nil {
			f.err = fmt.Errorf("queryd: fill for %s panicked: %v", key, p)
		}
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		if p != nil {
			panic(p)
		}
	}()
	f.ent, f.err = fill()
	if f.err == nil {
		c.misses.Add(1)
		c.store(key, f.ent)
	}
	return f.ent, false, f.err
}
