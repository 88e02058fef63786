package service

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// RespCache is the serving fast lane: an LRU of fully rendered response
// bodies keyed by the canonicalized request shape. Characterization is
// deterministic (the simulated measurements are pure functions of the
// machine and config), so a cached response never goes stale in substance —
// the TTL only bounds memory, mirroring the model cache's policy.
//
// In front of the canonical keys sits an exact-bytes index: each entry
// remembers at most one request spelling, the first one a canonical hit
// served, so a repeat of those exact bytes is answered by GetExact before
// it is decoded. A spelling lives and dies with its entry, so the TTL
// also bounds how long one spelling holds it.
//
// The daemon keeps one RespCache per cached endpoint so hit rates are
// observable per endpoint (numaiod_predict_cache_hits_total vs
// numaiod_place_cache_hits_total).
type RespCache struct {
	mu        sync.Mutex
	max       int
	ttl       time.Duration
	entries   map[string]*list.Element // canonical key -> entry
	spellings map[string]*list.Element // exact request bytes -> entry
	order     *list.List               // front = most recently used

	now func() time.Time

	hits   atomic.Int64
	misses atomic.Int64
}

type respEntry struct {
	key      string
	spelling string // "" until a canonical hit records one
	body     []byte
	expires  time.Time
}

// NewRespCache builds a response cache holding up to max rendered bodies,
// each valid for ttl after insertion. max == 0 means 1024 entries; max < 0
// disables caching (every call returns nil). ttl <= 0 means entries never
// expire.
func NewRespCache(max int, ttl time.Duration) *RespCache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = 1024
	}
	return &RespCache{
		max:       max,
		ttl:       ttl,
		entries:   make(map[string]*list.Element),
		spellings: make(map[string]*list.Element),
		order:     list.New(),
		now:       time.Now,
	}
}

// GetExact returns the cached body for a request spelled exactly as req,
// if an earlier canonical hit recorded that spelling and its entry is
// unexpired. A hit counts as a response-cache hit; a miss counts nothing,
// because the caller goes on to Get, which counts the request once.
// Callers must not mutate the returned slice. A nil cache always misses.
func (c *RespCache) GetExact(req []byte) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.spellings[string(req)]
	if !ok || c.expireLocked(el) {
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*respEntry).body, true
}

// Get returns the cached body for key, if present and unexpired. Callers
// must not mutate the returned slice. A nil cache always misses without
// counting.
func (c *RespCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || c.expireLocked(el) {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*respEntry).body, true
}

// Alias records req as the spelling of key's entry, if the entry has
// none, so GetExact answers the next request spelled exactly so. Call it
// only after Get served key for a request spelled req. A key that is no
// longer cached records nothing. No-op on a nil cache.
func (c *RespCache) Alias(key string, req []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || el.Value.(*respEntry).spelling != "" {
		return
	}
	// A spelling canonicalizes to one key, so it can name another entry
	// only if a caller aliased it wrongly; keep the index consistent.
	if _, taken := c.spellings[string(req)]; taken {
		return
	}
	ent := el.Value.(*respEntry)
	ent.spelling = string(req)
	c.spellings[ent.spelling] = el
}

// Put stores a rendered body, evicting the least recently used entry when
// over capacity. The cache takes ownership of body. No-op on a nil cache.
func (c *RespCache) Put(key string, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	expires := c.now().Add(c.ttl)
	if el, ok := c.entries[key]; ok {
		// The same key renders the same bytes, so a recorded spelling
		// still holds.
		ent := el.Value.(*respEntry)
		ent.body, ent.expires = body, expires
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&respEntry{key: key, body: body, expires: expires})
	for c.order.Len() > c.max {
		c.removeLocked(c.order.Back())
	}
}

// expireLocked drops el, with its spelling, when its TTL has passed, and
// reports whether it did.
func (c *RespCache) expireLocked(el *list.Element) bool {
	if c.ttl <= 0 || !c.now().After(el.Value.(*respEntry).expires) {
		return false
	}
	c.removeLocked(el)
	return true
}

// removeLocked drops el and its spelling.
func (c *RespCache) removeLocked(el *list.Element) {
	ent := el.Value.(*respEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	if ent.spelling != "" {
		delete(c.spellings, ent.spelling)
	}
}

// RespCacheStats is a snapshot of one response cache's counters.
type RespCacheStats struct {
	Hits, Misses int64
	Entries      int
}

// Stats snapshots the counters; zero-valued on a nil (disabled) cache.
func (c *RespCache) Stats() RespCacheStats {
	if c == nil {
		return RespCacheStats{}
	}
	c.mu.Lock()
	entries := c.order.Len()
	c.mu.Unlock()
	return RespCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: entries}
}
