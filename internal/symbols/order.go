package symbols

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Order ranks a table's names in byte order, so callers that sort by name
// (answer rows) compare integers instead of strings. It covers the names
// the table held when it was built; Table.Order builds it lazily, on first
// use, never at load.
//
// A covered name's rank is 2i+1, where i is its index in the byte order
// of the covered names. Any other string — a name interned after Thaw, or
// one that was never interned — ranks 2p, where p is the number of covered
// names below it: the even slot between its neighbours. Ranks therefore
// compare like the strings do, except that two strings sharing an even
// rank are unordered by it; callers break those ties by comparing the
// strings themselves.
type Order struct {
	t      *Table
	covers int      // IDs below covers are ranked by table
	rank   []uint32 // rank[id] for id < covers
	byRank []ID     // covered IDs (except None) in byte order of their names
}

// Order returns the table's name order, building it on first use. On a
// frozen or thawed table the base never changes, so the order is built
// once and shared by every goroutine. On a table still being loaded it is
// rebuilt when names were interned since the last build; like every
// load-phase call, that must stay on the loading goroutine.
func (t *Table) Order() *Order { return t.order.get(t) }

// orderCache holds a table's latest Order; mu serialises the builds, so
// goroutines racing to a first use build it once.
type orderCache struct {
	mu  sync.Mutex
	cur atomic.Pointer[Order]
}

func (c *orderCache) get(t *Table) *Order {
	if o := c.cur.Load(); o != nil && o.covers == len(t.names) {
		return o
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if o := c.cur.Load(); o != nil && o.covers == len(t.names) {
		return o
	}
	o := newOrder(t)
	c.cur.Store(o)
	return o
}

func newOrder(t *Table) *Order {
	names := t.names
	o := &Order{
		t:      t,
		covers: len(names),
		rank:   make([]uint32, len(names)),
		byRank: make([]ID, len(names)-1),
	}
	for i := range o.byRank {
		o.byRank[i] = ID(i + 1)
	}
	slices.SortFunc(o.byRank, func(a, b ID) int { return strings.Compare(names[a], names[b]) })
	for i, id := range o.byRank {
		o.rank[id] = uint32(2*i + 1)
	}
	return o
}

// Rank returns id's rank: exact for a covered name, an even slot for a
// name interned after the order was built.
func (o *Order) Rank(id ID) uint32 {
	if int(id) < o.covers {
		return o.rank[id]
	}
	return o.RankOf(o.t.Name(id))
}

// RankOf returns the rank s would have as a name: the covered name's own
// rank when s is one, else the even slot between its neighbours.
func (o *Order) RankOf(s string) uint32 {
	names := o.t.names
	p := sort.Search(len(o.byRank), func(i int) bool { return names[o.byRank[i]] >= s })
	if p < len(o.byRank) && names[o.byRank[p]] == s {
		return uint32(2*p + 1)
	}
	return uint32(2 * p)
}
