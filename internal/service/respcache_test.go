package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeNow is a settable clock for RespCache expiry.
type fakeNow struct{ ns atomic.Int64 }

func (f *fakeNow) now() time.Time          { return time.Unix(0, f.ns.Load()) }
func (f *fakeNow) advance(d time.Duration) { f.ns.Add(int64(d)) }

// checkRespCache verifies the exact-bytes index against the entries: each
// spelling names a live entry that names it back, and no entry names a
// spelling the index lacks.
func checkRespCache(t *testing.T, c *RespCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != c.order.Len() || c.order.Len() > c.max {
		t.Fatalf("%d keys, %d entries, max %d", len(c.entries), c.order.Len(), c.max)
	}
	named := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*respEntry)
		if c.entries[ent.key] != el {
			t.Fatalf("entry %q is not indexed under its key", ent.key)
		}
		if ent.spelling != "" {
			named++
			if c.spellings[ent.spelling] != el {
				t.Fatalf("entry %q names spelling %q, which the index does not map to it", ent.key, ent.spelling)
			}
		}
	}
	if named != len(c.spellings) {
		t.Fatalf("%d spellings indexed, %d named by entries", len(c.spellings), named)
	}
}

// TestRespCacheExactIndex walks one spelling through its life: recorded
// only by a canonical hit, served and counted as a hit, kept against a
// later spelling and across a re-Put, and dropped with its entry on
// eviction and on expiry. An exact miss never counts.
func TestRespCacheExactIndex(t *testing.T) {
	clock := &fakeNow{}
	c := NewRespCache(2, time.Minute)
	c.now = clock.now
	a, b := []byte(`{"x": 1}`), []byte(`{ "x":1 }`)

	c.Put("k", []byte("body-k"))
	if _, ok := c.GetExact(a); ok {
		t.Fatal("a spelling no canonical hit served was found")
	}
	c.Alias("missing", a) // a key that is not cached records nothing
	if got, ok := c.Get("k"); !ok || string(got) != "body-k" {
		t.Fatalf("Get(k) = %q, %v", got, ok)
	}
	c.Alias("k", a)
	if got, ok := c.GetExact(a); !ok || string(got) != "body-k" {
		t.Fatalf("GetExact(a) = %q, %v after the alias", got, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 2 hits (one exact) and no misses", st)
	}

	c.Alias("k", b)
	if _, ok := c.GetExact(b); ok {
		t.Error("a second spelling displaced the first")
	}
	c.Put("k", []byte("body-k"))
	if _, ok := c.GetExact(a); !ok {
		t.Error("a re-Put of the same key dropped its spelling")
	}
	checkRespCache(t, c)

	// Two newer entries evict k, and its spelling with it.
	c.Put("k2", []byte("body-k2"))
	c.Put("k3", []byte("body-k3"))
	if _, ok := c.GetExact(a); ok {
		t.Error("an evicted entry's spelling still hits")
	}
	checkRespCache(t, c)

	// Expiry drops the spelling with its entry, and counts one miss: Get's.
	c.Get("k2")
	c.Alias("k2", a)
	clock.advance(2 * time.Minute)
	before := c.Stats()
	if _, ok := c.GetExact(a); ok {
		t.Error("an expired entry's spelling still hits")
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("an expired entry still hits")
	}
	if st := c.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+1 {
		t.Errorf("stats %+v after %+v, want exactly one more miss", st, before)
	}
	checkRespCache(t, c)

	var off *RespCache
	if _, ok := off.GetExact(a); ok {
		t.Error("a disabled cache hit")
	}
	off.Alias("k", a)
}

// TestRespCacheConcurrent races GetExact, Get, Alias and Put from many
// goroutines over more keys than the cache holds, while the clock expires
// entries. Every body served, exact or canonical, must be the one Put for
// the request's own key; every Get is counted once and no exact miss is;
// and the index stays consistent. CI runs it under -race -count=10.
func TestRespCacheConcurrent(t *testing.T) {
	const workers, per, keys = 8, 2000, 24
	clock := &fakeNow{}
	c := NewRespCache(8, time.Second)
	c.now = clock.now
	var gets, exactHits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("key-%d", k)
				want := []byte("body-" + key)
				// Two spellings per key, as respelled clients send them.
				req := []byte(fmt.Sprintf(`{"k": %d}%s`, k, bytes.Repeat([]byte(" "), rng.Intn(2))))
				if body, ok := c.GetExact(req); ok {
					exactHits.Add(1)
					if !bytes.Equal(body, want) {
						t.Errorf("spelling %q served %q, want %q", req, body, want)
						return
					}
					continue
				}
				gets.Add(1)
				if body, ok := c.Get(key); ok {
					if !bytes.Equal(body, want) {
						t.Errorf("key %q served %q", key, body)
						return
					}
					c.Alias(key, req)
				} else {
					c.Put(key, want)
				}
				if rng.Intn(64) == 0 {
					clock.advance(300 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	checkRespCache(t, c)
	st := c.Stats()
	if st.Hits+st.Misses != gets.Load()+exactHits.Load() {
		t.Errorf("hits %d + misses %d, want %d gets + %d exact hits", st.Hits, st.Misses, gets.Load(), exactHits.Load())
	}
	if exactHits.Load() == 0 {
		t.Error("no request was served by the exact-bytes index")
	}
}
