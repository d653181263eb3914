// Package plancache is a lint fixture shaped like the server's LRU plan
// cache: an intrusive list + map behind one mutex, where every sibling
// field (list, map, counters) must be accessed under the lock.
package plancache

import (
	"container/list"
	"sync"
)

// cache mirrors the server LRU (internal/server/lru.go): mu guards every other field.
type cache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

type entry struct {
	key  string
	plan int
}

// get is the correct discipline: lock, consult the map and list, count,
// unlock via defer.
func (c *cache) get(key string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry).plan, true
}

// put inserts under the lock and evicts while over capacity.
func (c *cache) put(key string, plan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).plan = plan
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, plan: plan})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry).key)
	}
}

// len reads the guarded list without the lock — the racy "cheap read"
// shortcut the analyzer exists to catch.
func (c *cache) len() int {
	return c.ll.Len() // want:locksafety
}

// hitRate reads two guarded counters without the lock.
func (c *cache) hitRate() float64 {
	return float64(c.hits) / float64(c.hits+c.misses) // want:locksafety
}

// snapshotByValue copies the cache (and its mutex) into the receiver.
func (c cache) snapshotByValue() (uint64, uint64) { // want:locksafety
	return 0, 0
}

// reset swaps the guarded containers correctly.
func (c *cache) reset() {
	c.mu.Lock()
	c.ll = list.New()
	c.items = make(map[string]*list.Element)
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
}
