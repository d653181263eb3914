package graph

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ogpa/internal/symbols"
)

// randRun draws a sorted slice of labels from {2, 4, ..., 2k}, so that
// every odd label, 0, 1 and everything above 2k is absent. Some draws
// are empty, some hold one label, and some are long runs of one label.
func randRun(rng *rand.Rand) []symbols.ID {
	var ls []symbols.ID
	switch rng.Intn(4) {
	case 0: // empty
	case 1: // one label, once or in a long run
		l := symbols.ID(2 + 2*rng.Intn(4))
		for n := 1 + rng.Intn(2)*(40+rng.Intn(40)); n > 0; n-- {
			ls = append(ls, l)
		}
	default:
		for n := rng.Intn(60); n > 0; n-- {
			ls = append(ls, symbols.ID(2+2*rng.Intn(1+rng.Intn(8))))
		}
	}
	slices.Sort(ls)
	return ls
}

// TestLabelRangeMatchesSearch checks the hand-written searches of
// OutByLabel, InByLabel, HasOutLabel, HasInLabel, HasLabel, HasEdge and
// Attribute against sort.Search on random sorted rows: empty rows, one
// label, labels absent below, between and above the present ones, and
// long runs of one label (targets are drawn from 100 vertices, so a run
// keeps dozens of half-edges after deduplication).
func TestLabelRangeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var hs []Half
		for _, l := range randRun(rng) {
			hs = append(hs, Half{Label: l, To: VID(rng.Intn(100))})
		}
		slices.SortFunc(hs, func(a, b Half) int {
			return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To))
		})
		hs = slices.Compact(hs)
		ls := slices.Compact(randRun(rng))
		var as []Attr
		for _, l := range ls {
			as = append(as, Attr{Name: l, Value: Int(int64(l))})
		}
		g := &Graph{out: [][]Half{hs}, in: [][]Half{hs}, labels: [][]symbols.ID{ls}, attrs: [][]Attr{as}}
		for l := symbols.ID(0); l <= 20; l++ {
			lo := sort.Search(len(hs), func(i int) bool { return hs[i].Label >= l })
			hi := sort.Search(len(hs), func(i int) bool { return hs[i].Label > l })
			want := hs[lo:hi]
			for _, got := range [][]Half{g.OutByLabel(0, l), g.InByLabel(0, l)} {
				if !slices.Equal(got, want) || len(got) > 0 && &got[0] != &want[0] {
					t.Fatalf("row %v, label %d: range %v, want %v", hs, l, got, want)
				}
			}
			if g.HasOutLabel(0, l) != (len(want) > 0) || g.HasInLabel(0, l) != (len(want) > 0) {
				t.Fatalf("row %v: HasOutLabel/HasInLabel(%d) disagree with range %v", hs, l, want)
			}
			for to := VID(0); to <= 100; to++ {
				i := sort.Search(len(want), func(i int) bool { return want[i].To >= to })
				if got, want := g.HasEdge(0, l, to), i < len(want) && want[i].To == to; got != want {
					t.Fatalf("row %v: HasEdge(%d, %d) = %v, want %v", hs, l, to, got, want)
				}
			}
			i := sort.Search(len(ls), func(i int) bool { return ls[i] >= l })
			if got, want := g.HasLabel(0, l), i < len(ls) && ls[i] == l; got != want {
				t.Fatalf("labels %v: HasLabel(%d) = %v, want %v", ls, l, got, want)
			}
			i = sort.Search(len(as), func(i int) bool { return as[i].Name >= l })
			found := i < len(as) && as[i].Name == l
			if v, ok := g.Attribute(0, l); ok != found || ok && v != as[i].Value {
				t.Fatalf("attributes %v: Attribute(%d) = %v, %v; want %v", as, l, v, ok, found)
			}
		}
	}
}
