// Package bitset provides fixed-universe, word-packed bit sets. The
// matchers use Sets for candidate-set membership during candidate-space
// construction (BuildCS / BuildOMCS): a membership probe is one shift
// and one mask instead of a map hash, and a whole-set intersection runs
// at eight candidates per byte.
//
// The package is stdlib-only and deliberately small: sets never grow and
// indexes are uint32 (matching graph.VID). Recycling sets across build
// phases is the engine's business (its pooled scratch).
package bitset

import "math/bits"

const wordBits = 64

// Set is a bit set over the universe [0, Cap()). The zero value is an
// empty set over an empty universe; use New for a sized one.
type Set struct {
	words []uint64
}

// New returns an empty Set over the universe [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Cap reports the universe size rounded up to the word boundary.
func (s *Set) Cap() int { return len(s.words) * wordBits }

// Add inserts i. i must be < Cap().
func (s *Set) Add(i uint32) {
	s.words[i/wordBits] |= 1 << (i % wordBits)
}

// Remove deletes i. i must be < Cap().
func (s *Set) Remove(i uint32) {
	s.words[i/wordBits] &^= 1 << (i % wordBits)
}

// Has reports whether i is in the set. i must be < Cap().
func (s *Set) Has(i uint32) bool {
	return s.words[i/wordBits]&(1<<(i%wordBits)) != 0
}

// Reset empties the set, keeping its universe.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count reports the number of elements.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// And intersects s with t in place. The sets must share a universe size.
func (s *Set) And(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// AndNot removes every element of t from s in place. The sets must share
// a universe size.
func (s *Set) AndNot(t *Set) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Or unions t into s in place. The sets must share a universe size.
func (s *Set) Or(t *Set) {
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// ForEach calls fn on every element in ascending order, stopping early
// when fn returns false.
func (s *Set) ForEach(fn func(i uint32) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := uint32(bits.TrailingZeros64(w))
			if !fn(uint32(wi*wordBits) + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Append appends the elements to dst in ascending order and returns the
// extended slice.
func (s *Set) Append(dst []uint32) []uint32 {
	for wi, w := range s.words {
		for w != 0 {
			b := uint32(bits.TrailingZeros64(w))
			dst = append(dst, uint32(wi*wordBits)+b)
			w &= w - 1
		}
	}
	return dst
}
