package service

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"numaio/internal/core"
)

// ModelCache is the daemon's model store: an LRU with per-entry TTL keyed
// by topology fingerprint (plus characterization options), with
// singleflight-style coalescing so identical concurrent characterize
// requests trigger exactly one Algorithm 1 run.
type ModelCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*flight

	// now is the clock; injectable for TTL tests.
	now func() time.Time

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key     string
	model   *core.MachineModel
	expires time.Time
}

type flight struct {
	done  chan struct{}
	model *core.MachineModel
	err   error
}

// NewModelCache builds a cache holding up to max entries, each valid for
// ttl after insertion. max <= 0 means 64 entries; ttl <= 0 means entries
// never expire.
func NewModelCache(max int, ttl time.Duration) *ModelCache {
	if max <= 0 {
		max = 64
	}
	return &ModelCache{
		max:     max,
		ttl:     ttl,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		flights: make(map[string]*flight),
		now:     time.Now,
	}
}

// getLocked reports expired entries as misses but retains them: an
// expired model is the stale fallback the daemon serves (marked as such)
// when recomputation fails. Capacity pressure still evicts stale entries
// LRU-wise like any other.
func (c *ModelCache) getLocked(key string) (*core.MachineModel, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if c.ttl > 0 && c.now().After(ent.expires) {
		return nil, false
	}
	c.order.MoveToFront(el)
	return ent.model, true
}

// GetStale returns the entry for key even when expired — the last good
// model, for graceful degradation when a fresh characterization fails.
func (c *ModelCache) GetStale(key string) (*core.MachineModel, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).model, true
}

// put inserts (or refreshes) an entry, evicting the least recently used
// entry when over capacity.
func (c *ModelCache) put(key string, mm *core.MachineModel) {
	ent := &cacheEntry{key: key, model: mm, expires: c.now().Add(c.ttl)}
	if el, ok := c.entries[key]; ok {
		el.Value = ent
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(ent)
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// GetOrCompute returns the model for key, computing it at most once across
// concurrent callers. The second return reports whether the model came out
// of the cache (or a coalesced in-flight computation) rather than a fresh
// compute by this caller.
func (c *ModelCache) GetOrCompute(key string, compute func() (*core.MachineModel, error)) (*core.MachineModel, bool, error) {
	c.mu.Lock()
	if mm, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return mm, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.model, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	f.model, f.err = compute()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.put(key, f.model)
	}
	c.mu.Unlock()
	close(f.done)
	return f.model, false, f.err
}

// Install places an externally supplied model into the cache under key —
// the fleet replication hook. It behaves exactly like a computed entry:
// TTL applies from now and LRU pressure can evict it.
func (c *ModelCache) Install(key string, mm *core.MachineModel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, mm)
}

// FindByFingerprint returns the most recently used unexpired entry whose
// model carries the given topology fingerprint, regardless of the
// characterization options in its key — the GET /v1/models lookup.
func (c *ModelCache) FindByFingerprint(fp string) (*core.MachineModel, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		if ent.model.Fingerprint != fp {
			continue
		}
		if c.ttl > 0 && c.now().After(ent.expires) {
			continue
		}
		return ent.model, true
	}
	return nil, false
}

// Len returns the number of live entries.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a snapshot of the cache counters. Stale counts the expired
// entries currently retained as fallbacks.
type CacheStats struct {
	Hits, Misses, Coalesced, Evictions int64
	Entries                            int
	Stale                              int
}

// Stats snapshots the counters.
func (c *ModelCache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.order.Len()
	stale := 0
	if c.ttl > 0 {
		now := c.now()
		for el := c.order.Front(); el != nil; el = el.Next() {
			if now.After(el.Value.(*cacheEntry).expires) {
				stale++
			}
		}
	}
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Stale:     stale,
	}
}
