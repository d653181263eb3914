// Package engine is a lint fixture shaped like the shared execution
// engine: a capability struct consulted on the hot path, a condKind-style
// enum dispatched in the inner loop, and a resultGate whose counters live
// behind a mutex. Its import path ends in internal/engine, which puts it
// on the internsafety hot-path list — raw string probes are findings here.
package engine

import "sync"

// caps holds feature flags pinned at Prepare time.
type caps struct {
	omission bool
}

// condKind mirrors the engine's compiled-condition discriminator.
type condKind int

// Condition kinds.
const (
	condLabel condKind = iota
	condAttr
	condOmit
)

// dispatch covers every kind: clean.
func dispatch(k condKind) int {
	switch k {
	case condLabel:
		return 1
	case condAttr:
		return 2
	case condOmit:
		return 3
	}
	return 0
}

// dispatchMissing drops condOmit — exactly the silently-skipped evaluation
// branch exhaustiveswitch exists to catch.
func dispatchMissing(k condKind) int {
	switch k { // want:exhaustiveswitch
	case condLabel:
		return 1
	case condAttr:
		return 2
	}
	return 0
}

// probeLabel compares candidate labels as raw strings inside the per-
// candidate loop instead of going through the intern table.
func probeLabel(c caps, got, want string) bool {
	if !c.omission {
		return false
	}
	return got == want // want:internsafety
}

// probeInterned is the correct form: IDs, not text.
func probeInterned(got, want uint32) bool {
	return got == want
}

// labelIndex keys a hot-path index by label text.
type labelIndex struct {
	byText map[string]int // want:internsafety
	byID   map[uint32]int
}

// resultGate mirrors the engine's parallel result gate: mu guards count
// and closed.
type resultGate struct {
	mu     sync.Mutex
	limit  int
	count  int
	closed bool
}

// tryEmit is the correct discipline: every sibling access under mu.
func (g *resultGate) tryEmit() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || (g.limit > 0 && g.count >= g.limit) {
		g.closed = true
		return false
	}
	g.count++
	return true
}

// emitted reads the guarded counter without the lock — the racy shortcut a
// worker might be tempted to take when checking the budget.
func (g *resultGate) emitted() int {
	return g.count // want:locksafety
}

// drained reads the guarded flag without the lock.
func (g *resultGate) drained() bool {
	return g.closed // want:locksafety
}
