package serve

import (
	"sync"
)

// memo is the package's one singleflight memo: concurrent callers for
// the same key block on a single computation instead of each computing
// the value themselves, and a successful result is kept for later
// callers. It backs both the per-snapshot query cache (rendered
// artifacts of filtered queries) and the server's pinned generations
// (past store generations loaded for ?gen= reads).
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]V
	flights map[K]*flight[V]
	max     int // entry cap; an arbitrary entry is evicted at the cap
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newMemo[K comparable, V any](max int) *memo[K, V] {
	if max < 1 {
		max = 1
	}
	return &memo[K, V]{
		entries: make(map[K]V),
		flights: make(map[K]*flight[V]),
		max:     max,
	}
}

// queryCache memoizes the rendered artifacts of filtered queries for one
// snapshot generation. The Server allocates a fresh cache per snapshot
// swap, so entries can never outlive the data they were rendered from.
type queryCache = memo[string, *artifact]

func newQueryCache(max int) *queryCache { return newMemo[string, *artifact](max) }

// do returns the value for key, computing it at most once per key:
// cached results are returned immediately, and concurrent misses for the
// same key collapse onto one compute call. A failed computation is
// shared with its waiters but not kept, so the next call retries. The
// three counters (hit, collapsed, miss) feed /varz; m may be nil.
func (c *memo[K, V]) do(key K, m *Metrics, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.mu.Unlock()
		if m != nil {
			m.cacheHits.Add(1)
		}
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		if m != nil {
			m.cacheCollapsed.Add(1)
		}
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	if m != nil {
		m.cacheMisses.Add(1)
	}
	f.val, f.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		if len(c.entries) >= c.max {
			for k := range c.entries { // evict an arbitrary entry
				delete(c.entries, k)
				break
			}
		}
		c.entries[key] = f.val
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// size returns the number of cached entries.
func (c *memo[K, V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
