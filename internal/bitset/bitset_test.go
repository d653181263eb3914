package bitset_test

import (
	"math/rand"
	"sort"
	"testing"

	"ogpa/internal/bitset"
	"ogpa/internal/graph"
)

// model is the reference implementation the property tests compare
// against: the map[graph.VID]bool sets the matchers used before this
// package existed.
type model map[graph.VID]bool

func (m model) sorted() []uint32 {
	out := make([]uint32, 0, len(m))
	for v := range m {
		out = append(out, uint32(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSlices(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstModel verifies every observable of the Set against the map
// reference: membership, count, and ascending iteration (both ForEach
// and Append).
func checkAgainstModel(t *testing.T, s *bitset.Set, m model, n int) {
	t.Helper()
	if got, want := s.Count(), len(m); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		if got, want := s.Has(uint32(i)), m[graph.VID(i)]; got != want {
			t.Fatalf("Has(%d) = %v, want %v", i, got, want)
		}
	}
	want := m.sorted()
	if got := s.Append(nil); !equalSlices(got, want) {
		t.Fatalf("Append order = %v, want %v", got, want)
	}
	var walked []uint32
	s.ForEach(func(i uint32) bool {
		walked = append(walked, i)
		return true
	})
	if !equalSlices(walked, want) {
		t.Fatalf("ForEach order = %v, want %v", walked, want)
	}
}

// TestRandomOpsAgainstMapModel drives random Add/Remove/Reset/And/AndNot/Or
// sequences against the map reference on many seeds.
func TestRandomOpsAgainstMapModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := bitset.New(n)
		other := bitset.New(n)
		m := model{}
		om := model{}
		for op := 0; op < 400; op++ {
			i := graph.VID(rng.Intn(n))
			switch rng.Intn(8) {
			case 0, 1, 2:
				s.Add(uint32(i))
				m[i] = true
			case 3:
				s.Remove(uint32(i))
				delete(m, i)
			case 4:
				other.Add(uint32(i))
				om[i] = true
			case 5:
				s.And(other)
				for v := range m {
					if !om[v] {
						delete(m, v)
					}
				}
			case 6:
				s.AndNot(other)
				for v := range om {
					delete(m, v)
				}
			case 7:
				s.Or(other)
				for v := range om {
					m[v] = true
				}
			}
		}
		checkAgainstModel(t, s, m, n)
		s.Reset()
		checkAgainstModel(t, s, model{}, n)
	}
}

// TestForEachEarlyStop pins the early-exit contract.
func TestForEachEarlyStop(t *testing.T) {
	s := bitset.New(200)
	for _, i := range []uint32{3, 64, 65, 130, 199} {
		s.Add(i)
	}
	var seen []uint32
	s.ForEach(func(i uint32) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if !equalSlices(seen, []uint32{3, 64, 65}) {
		t.Fatalf("early-stopped walk = %v, want [3 64 65]", seen)
	}
}

// TestWordBoundaries exercises indexes on and around 64-bit word edges.
func TestWordBoundaries(t *testing.T) {
	s := bitset.New(129)
	m := model{}
	for _, i := range []uint32{0, 63, 64, 127, 128} {
		s.Add(i)
		m[graph.VID(i)] = true
	}
	checkAgainstModel(t, s, m, 129)
	if got := s.Cap(); got < 129 {
		t.Fatalf("Cap() = %d, want >= 129", got)
	}
	s.Remove(64)
	delete(m, 64)
	checkAgainstModel(t, s, m, 129)
}

// TestZeroUniverse pins the degenerate empty-universe behaviour used by
// empty graphs.
func TestZeroUniverse(t *testing.T) {
	s := bitset.New(0)
	if s.Count() != 0 || s.Cap() != 0 {
		t.Fatalf("empty universe: Count=%d Cap=%d", s.Count(), s.Cap())
	}
	s.ForEach(func(uint32) bool { t.Fatal("walked an empty universe"); return false })
	if out := s.Append(nil); len(out) != 0 {
		t.Fatalf("Append on empty universe = %v", out)
	}
}
