// Package symbols provides string interning tables shared by the graph,
// ontology and query layers. Interning keeps hot paths (label comparison,
// adjacency probes) on small integer IDs instead of strings.
//
// # Lifecycle
//
// A Table goes through two phases:
//
//  1. Load: a single goroutine interns strings while the graph is built.
//     The table is NOT safe for concurrent mutation in this phase.
//  2. Serve: Freeze() seals the table. From then on every read — Lookup,
//     Name, Len, All, and Intern of an already-present string — is
//     lock-free and safe from any number of goroutines, because nothing
//     mutates anymore. Intern of a NEW string panics with a clear message:
//     a query-time intern on a shared table would otherwise be a silent
//     data race.
//
// Live-data deployments (internal/delta) need a third mode: writers keep
// inserting triples after the table is shared, and new individuals carry
// new names. Thaw() seals the base exactly like Freeze but opens a
// mutex-guarded extension for strings interned afterwards. Base reads stay
// lock-free (the base storage never mutates again); only lookups that miss
// the base — overlay names, by construction a small minority — touch the
// extension lock.
//
// Servers (internal/server) freeze the table at startup; batch tools that
// never share the table across goroutines may skip Freeze entirely.
package symbols

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ID identifies an interned string. The zero value is reserved for "absent".
type ID uint32

// None is the reserved invalid ID.
const None ID = 0

// extension is the thaw-phase overflow table: every field is guarded by
// mu. It is a separate struct so the base Table keeps its lock-free reads
// without the lock discipline bleeding into them.
type extension struct {
	mu     sync.RWMutex
	byName map[string]ID
	names  []string // names[i] has ID base+i
	base   ID       // first extension ID (len of the frozen base array)
}

// intern returns the extension ID for s, assigning one on first sight.
func (x *extension) intern(s string) ID {
	x.mu.Lock()
	defer x.mu.Unlock()
	if id, ok := x.byName[s]; ok {
		return id
	}
	if x.byName == nil {
		x.byName = make(map[string]ID, 16)
	}
	id := x.base + ID(len(x.names))
	x.names = append(x.names, s)
	x.byName[s] = id
	return id
}

// lookup resolves s among the extension entries (None when absent).
func (x *extension) lookup(s string) ID {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.byName[s]
}

// name resolves an extension ID; ok=false when out of range.
func (x *extension) name(id ID) (string, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	i := int(id - x.base)
	if i < 0 || i >= len(x.names) {
		return "", false
	}
	return x.names[i], true
}

// len reports the number of extension entries.
func (x *extension) len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.names)
}

// all appends the extension strings to dst.
func (x *extension) all(dst []string) []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return append(dst, x.names...)
}

// Table is an append-only intern table. See the package comment for the
// load/serve/live lifecycle and the concurrency rules of each phase.
type Table struct {
	byName map[string]ID
	names  []string
	frozen atomic.Bool
	live   atomic.Bool
	ext    extension
	order  orderCache
}

// NewTable returns an empty table. ID 0 is reserved; the first interned
// string receives ID 1.
func NewTable() *Table {
	return &Table{
		byName: make(map[string]ID, 64),
		names:  []string{""},
	}
}

// Intern returns the ID for s, assigning a fresh one on first sight.
// On a frozen table, interning a string that was never seen during load
// panics: mutating a shared table at serve time would be a data race.
// On a thawed table new strings go to the mutex-guarded extension, so
// writer goroutines may intern concurrently with lock-free base reads.
func (t *Table) Intern(s string) ID {
	if id, ok := t.byName[s]; ok {
		return id
	}
	if t.live.Load() {
		return t.ext.intern(s)
	}
	if t.frozen.Load() {
		panic(fmt.Sprintf("symbols: Intern(%q) on a frozen table — intern every string during load, before Freeze (or Thaw for live data)", s))
	}
	id := ID(len(t.names))
	t.names = append(t.names, s)
	t.byName[s] = id
	return id
}

// Freeze seals the table: subsequent Intern calls for new strings panic,
// and all reads become safe for concurrent use (they were already
// lock-free; freezing guarantees nothing mutates under them). Freeze must
// be called on the loading goroutine, before the table is shared. On a
// thawed table Freeze is a no-op beyond marking the base frozen: the live
// extension keeps accepting new strings.
func (t *Table) Freeze() { t.frozen.Store(true) }

// Thaw seals the base like Freeze but opens the live extension: Intern of
// a new string appends to a mutex-guarded overflow table instead of
// panicking. Like Freeze it must be called on the loading goroutine before
// the table is shared. Reads of base entries stay lock-free; only misses
// fall through to the extension lock.
func (t *Table) Thaw() {
	t.ext.mu.Lock()
	t.ext.base = ID(len(t.names))
	t.ext.mu.Unlock()
	t.frozen.Store(true)
	t.live.Store(true)
}

// Frozen reports whether Freeze (or Thaw) has been called.
func (t *Table) Frozen() bool { return t.frozen.Load() }

// Live reports whether Thaw has been called (serve-phase interning open).
func (t *Table) Live() bool { return t.live.Load() }

// Lookup returns the ID for s, or None if s was never interned.
func (t *Table) Lookup(s string) ID {
	if id, ok := t.byName[s]; ok {
		return id
	}
	if t.live.Load() {
		return t.ext.lookup(s)
	}
	return None
}

// Name returns the string for id. It panics on an out-of-range ID, which
// always indicates a programming error (IDs are only minted by Intern).
func (t *Table) Name(id ID) string {
	if int(id) < len(t.names) {
		return t.names[id]
	}
	if t.live.Load() {
		if s, ok := t.ext.name(id); ok {
			return s
		}
	}
	panic(fmt.Sprintf("symbols: ID %d out of range (table has %d entries)", id, t.Len()))
}

// Len reports the number of interned strings (excluding the reserved slot).
func (t *Table) Len() int {
	n := len(t.names) - 1
	if t.live.Load() {
		n += t.ext.len()
	}
	return n
}

// All returns the interned strings in sorted order. Intended for stats and
// debugging output, not hot paths.
func (t *Table) All() []string {
	out := make([]string, 0, t.Len())
	out = append(out, t.names[1:]...)
	if t.live.Load() {
		out = t.ext.all(out)
	}
	sort.Strings(out)
	return out
}
