package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"numaio/internal/core"
)

func model(fp string) *core.MachineModel {
	return &core.MachineModel{Machine: "m", Fingerprint: fp}
}

// lookup reads the cache as a hit would: unexpired entries only, each
// read refreshing the entry's LRU position.
func lookup(c *ModelCache, key string) (*core.MachineModel, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

func TestCacheTTLExpiry(t *testing.T) {
	c := NewModelCache(4, time.Minute)
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	computes := 0
	get := func() (*core.MachineModel, bool, error) {
		return c.GetOrCompute("k", func() (*core.MachineModel, error) {
			computes++
			return model("fp"), nil
		})
	}

	if _, cached, _ := get(); cached {
		t.Error("first lookup claims a hit")
	}
	if _, cached, _ := get(); !cached {
		t.Error("second lookup within TTL missed")
	}
	now = now.Add(2 * time.Minute)
	// The expired entry is a miss for a lookup, but is retained as the stale
	// fallback until recomputed or evicted by capacity pressure.
	if _, ok := lookup(c, "k"); ok {
		t.Error("lookup returned an expired entry")
	}
	if mm, ok := c.GetStale("k"); !ok || mm == nil {
		t.Error("expired entry not retained for GetStale")
	}
	if s := c.Stats(); s.Stale != 1 || s.Evictions != 0 {
		t.Errorf("stats after expiry = %+v, want 1 stale and 0 evictions", s)
	}
	if _, cached, _ := get(); cached {
		t.Error("lookup after TTL still hit")
	}
	if computes != 2 {
		t.Errorf("computed %d times, want 2", computes)
	}
	// The recompute refreshed the entry: no longer stale.
	if s := c.Stats(); s.Stale != 0 {
		t.Errorf("stale = %d after refresh, want 0", s.Stale)
	}
	if _, ok := c.GetStale("missing"); ok {
		t.Error("GetStale invented an entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewModelCache(2, 0) // no TTL
	add := func(key string) {
		c.GetOrCompute(key, func() (*core.MachineModel, error) { return model(key), nil })
	}
	add("a")
	add("b")
	// Touch "a" so "b" is the LRU victim.
	if _, ok := lookup(c, "a"); !ok {
		t.Fatal("a missing before eviction")
	}
	add("c")
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	if _, ok := lookup(c, "b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := lookup(c, "a"); !ok {
		t.Error("recently-used entry a was evicted")
	}
	if _, ok := c.FindByFingerprint("c"); !ok {
		t.Error("FindByFingerprint misses live entry c")
	}
	if _, ok := c.FindByFingerprint("b"); ok {
		t.Error("FindByFingerprint returns evicted entry b")
	}
}

func TestCacheCoalescing(t *testing.T) {
	c := NewModelCache(4, time.Minute)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes int
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrCompute("k", func() (*core.MachineModel, error) {
			computes++
			close(started)
			<-release
			return model("fp"), nil
		})
	}()
	<-started

	const followers = 4
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mm, cached, err := c.GetOrCompute("k", func() (*core.MachineModel, error) {
				t.Error("follower computed despite in-flight leader")
				return model("fp"), nil
			})
			if err != nil || mm == nil || !cached {
				t.Errorf("follower got (%v, %v, %v)", mm, cached, err)
			}
		}()
	}
	// Give the followers a moment to attach to the flight, then let the
	// leader finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if s := c.Stats(); s.Misses != 1 || s.Coalesced == 0 {
		t.Errorf("stats = %+v, want 1 miss and >0 coalesced", s)
	}
}

func TestCacheComputeErrorNotCached(t *testing.T) {
	c := NewModelCache(4, time.Minute)
	computes := 0
	fail := func() (*core.MachineModel, error) {
		computes++
		return nil, fmt.Errorf("boom")
	}
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, _, err := c.GetOrCompute("k", fail); err == nil {
		t.Fatal("error cached as success")
	}
	if computes != 2 {
		t.Errorf("failed computes cached: ran %d times, want 2", computes)
	}
	if c.Len() != 0 {
		t.Errorf("failed compute left %d entries", c.Len())
	}
}

func TestPoolBoundsAndDrain(t *testing.T) {
	p := NewPool(1)

	// The single slot serializes: a second Acquire must wait for Release.
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); err == nil {
		t.Fatal("second Acquire succeeded with the slot held")
	}
	if got := p.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1", got)
	}
	p.Release()

	// Drain waits for submitted jobs, then refuses new work.
	done := make(chan struct{})
	if err := p.Submit(func() {
		if err := p.Acquire(context.Background()); err != nil {
			t.Error(err)
			return
		}
		defer p.Release()
		time.Sleep(20 * time.Millisecond)
		close(done)
	}); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := p.Drain(ctx2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	default:
		t.Error("Drain returned before the submitted job finished")
	}
	if err := p.Submit(func() {}); err == nil {
		t.Error("Submit accepted work after Drain")
	}
}
