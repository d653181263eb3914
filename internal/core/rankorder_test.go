package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ogpa/internal/graph"
	"ogpa/internal/symbols"
)

// sortRowsOf renders s in insertion order and sorts the rows with
// SortRows: the order Names2D must reproduce.
func sortRowsOf(s *AnswerSet, g *graph.Graph) [][]string {
	rows := make([][]string, s.Len())
	for i, a := range s.Answers() {
		rows[i] = make([]string, len(a))
		for j, v := range a {
			rows[i][j] = cellName(v, g)
		}
	}
	SortRows(rows)
	return rows
}

// TestRankOrderMatchesSortRows pins Names2D's rank order to SortRows on
// random answers over TestSortRowsCellOrder's tokens: bytes below ',',
// embedded commas, prefix pairs, "", "⊥" (so a vertex can render like an
// omitted one) and "é". Rows are 1-3 cells wide with omitted cells, and
// on most seeds part of the names is interned after Thaw, so they rank
// between the base names. Half the seeds draw only tokens without low
// bytes.
func TestRankOrderMatchesSortRows(t *testing.T) {
	all := []string{"a", "b", "ab", "aa", "a,", ",a", ",", "b,", "#", "!", "+", " ", "a ", "a#", "a!", "a+", "", "⊥", "é"}
	high := []string{"a", "b", "ab", "aa", "ba", "", "⊥", "é", "aé", "-", "a-"}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tokens := all
		if seed%2 == 0 {
			tokens = high
		}
		tbl := symbols.NewTable()
		tbl.Intern("Label") // a name no vertex has
		gb := graph.NewBuilder(tbl)
		nv := 1 + rng.Intn(60)
		thawAt := rng.Intn(nv + 1) // vertices from here on are interned after Thaw
		if seed%5 == 0 {
			thawAt = nv // never thawed: the table is still loading
		}
		var vs []graph.VID
		for i := 0; i < nv; i++ {
			if i == thawAt {
				tbl.Thaw()
			}
			var b strings.Builder
			for k := rng.Intn(3); k >= 0; k-- {
				b.WriteString(tokens[rng.Intn(len(tokens))])
			}
			vs = append(vs, gb.Vertex(b.String()))
		}
		g := gb.Freeze()
		s := NewAnswerSet()
		width := 1 + rng.Intn(3)
		for i := rng.Intn(300); i > 0; i-- {
			a := make(Answer, width)
			for j := range a {
				a[j] = vs[rng.Intn(len(vs))]
				if rng.Intn(6) == 0 {
					a[j] = Omitted
				}
			}
			s.Add(a)
		}
		want := sortRowsOf(s, g)
		if got := s.Names2D(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Names2D differs from SortRows:\ngot  %q\nwant %q", seed, got, want)
		}
	}
}

// TestRankOrderFirstUseRace renders from 8 goroutines on tables whose
// name order is not built yet: a frozen one, and a thawed one while a
// writer keeps interning. Run it under -race.
func TestRankOrderFirstUseRace(t *testing.T) {
	for _, thaw := range []bool{false, true} {
		tbl := symbols.NewTable()
		gb := graph.NewBuilder(tbl)
		var vs []graph.VID
		for i := 0; i < 200; i++ {
			if thaw && i == 150 {
				tbl.Thaw()
			}
			vs = append(vs, gb.Vertex(fmt.Sprintf("http://e/v%d", (i*7919)%200)))
		}
		g := gb.Freeze()
		if !thaw {
			tbl.Freeze()
		}
		s := NewAnswerSet()
		for i := range vs {
			s.Add(Answer{vs[i], vs[(i*31)%len(vs)]})
		}
		want := sortRowsOf(s, g)
		stop := make(chan struct{})
		var writer sync.WaitGroup
		if thaw {
			writer.Add(1)
			go func() {
				defer writer.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						tbl.Intern(fmt.Sprintf("http://e/new%d", i))
					}
				}
			}()
		}
		var readers sync.WaitGroup
		for r := 0; r < 8; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				if got := s.Names2D(g); !reflect.DeepEqual(got, want) {
					t.Errorf("thaw %v: a concurrent render differs from SortRows", thaw)
				}
			}()
		}
		readers.Wait()
		close(stop)
		writer.Wait()
	}
}
