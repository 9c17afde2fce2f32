package queryd

import (
	"container/list"
	"sync"
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

// cache is a byte-bounded LRU with singleflight fill: concurrent misses on
// one key collapse to a single computation, every waiter gets the one
// result. Keys are the render cache keys (store digest | render | params),
// so an updated dataset naturally misses instead of serving stale bytes.
type cache struct {
	mu    sync.Mutex
	max   int64 // byte budget; <=0 disables caching (every Get computes)
	used  int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> element whose Value is *cacheItem

	flights map[string]*flight

	onEvict func() // metrics hook; must not call back into the cache
}

type cacheItem struct {
	key string
	ent *entry
}

// flight is one in-progress fill; followers wait on done.
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

func newCache(maxBytes int64, onEvict func()) *cache {
	return &cache{
		max:     maxBytes,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		onEvict: onEvict,
	}
}

// lookup returns a cached entry and bumps its recency.
func (c *cache) lookup(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).ent, true
}

// store inserts an entry and evicts LRU items past the byte budget.
func (c *cache) store(key string, ent *entry) {
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
	el := c.ll.PushFront(&cacheItem{key: key, ent: ent})
	c.items[key] = el
	c.used += ent.size()
	for c.used > c.max && c.ll.Len() > 1 {
		back := c.ll.Back()
		if back == nil {
			break
		}
		item := back.Value.(*cacheItem)
		c.ll.Remove(back)
		delete(c.items, item.key)
		c.used -= item.ent.size()
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// getOrFill returns the cached entry for key, or computes it via fill.
// Concurrent callers for the same key share one fill (singleflight): the
// first caller computes, the rest block until it finishes and reuse its
// result. A failed fill is not cached; every waiter sees the error and the
// next request retries. hit reports whether the entry came from cache
// (false for the computing caller AND its followers — they waited on a
// computation, not a cache).
func (c *cache) getOrFill(key string, fill func() (*entry, error)) (ent *entry, hit bool, err error) {
	if ent, ok := c.lookup(key); ok {
		return ent, true, nil
	}

	c.mu.Lock()
	// Re-check under the flight lock: the entry may have landed between the
	// lookup and here.
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheItem).ent
		c.mu.Unlock()
		return ent, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.ent, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	f.ent, f.err = fill()
	if f.err == nil {
		c.store(key, f.ent)
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return f.ent, false, f.err
}

// len returns the number of cached entries (tests).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
