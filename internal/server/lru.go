package server

import (
	"container/list"
	"sync"

	"ogpa"
)

// lru is the serving tier's plan cache (Config.PlanCacheSize): one
// prepared plan per ogpa.CacheKey(fingerprint, epoch, kind, query text).
// A hit skips the rewriter (GenOGP or PerfectRef) and the candidate-space
// build; only enumeration runs per request. Plans are safe to share: both
// ogpa.PreparedQuery.Answer and the engine's Plan.Run are
// concurrent-safe, so one cached plan may serve overlapping requests.
//
// The epoch is in every key: a delta commit bumps it, so entries for a
// superseded version can never hit again. They are dropped at once
// rather than left to age out, because each plan pins the snapshot graph
// it was prepared on (and through it the pre-compaction base): the first
// put at a newer epoch clears the cache, and a put at an older epoch
// (a Prepare that raced a commit) stores nothing. Hits and misses are
// counted per kind so /stats can show how the cache splits between the
// primary pipeline and the baselines.
//
// Every sibling field is accessed under mu (the locksafety analyzer
// enforces the discipline).
type lru struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	epoch  uint64 // newest epoch put; every entry belongs to it
	hits   uint64
	misses uint64
	byKind map[string]*kindCounters
}

// kindCounters are the per-kind hit/miss tallies behind the cache's mu.
type kindCounters struct {
	hits   uint64
	misses uint64
}

type lruEntry struct {
	key   string
	kind  string
	value *ogpa.PreparedQuery
}

// newLRU builds a cache holding up to capacity entries; capacity <= 0
// returns nil (caching disabled — a nil *lru is inert).
func newLRU(capacity int) *lru {
	if capacity <= 0 {
		return nil
	}
	return &lru{
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element, capacity),
		byKind: make(map[string]*kindCounters),
	}
}

// get returns the cached plan for key, promoting it to most recently
// used, or nil on a miss. Hit/miss counters (total and per kind) move
// here.
func (c *lru) get(kind, key string) *ogpa.PreparedQuery {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kc := c.byKind[kind]
	if kc == nil {
		kc = &kindCounters{}
		c.byKind[kind] = kc
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		kc.misses++
		return nil
	}
	c.hits++
	kc.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value
}

// put inserts a plan prepared at epoch, evicting the least recently used
// entry when full. A newer epoch than the cache holds first clears every
// entry; an older one stores nothing. A concurrent duplicate insert (two
// requests missing on the same key) just refreshes the existing entry.
func (c *lru) put(kind, key string, epoch uint64, value *ogpa.PreparedQuery) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch < c.epoch {
		return
	}
	if epoch > c.epoch {
		c.epoch = epoch
		c.ll.Init()
		clear(c.items)
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).value = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, kind: kind, value: value})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// snapshot reports the counters and current size.
func (c *lru) snapshot() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}

// snapshotByKind reports per-kind hits, misses and resident entry counts.
// Size is recomputed by walking the (bounded, <= cap) entry list.
func (c *lru) snapshotByKind() map[string]PlanCacheKindStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]PlanCacheKindStats, len(c.byKind))
	for kind, kc := range c.byKind {
		out[kind] = PlanCacheKindStats{Hits: kc.hits, Misses: kc.misses}
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		kind := el.Value.(*lruEntry).kind
		ks := out[kind]
		ks.Size++
		out[kind] = ks
	}
	return out
}
