package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ogpa/internal/graph"
)

// joinSort is the comparator SortRows replaced; its order is what every
// answer response has always been rendered in.
func joinSort(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], ",") < strings.Join(rows[j], ",")
	})
}

// TestSortRowsMatchesJoinOrder pins SortRows to joinSort's exact output on
// random rows whose cells hold bytes below ',' (so a cell that is a prefix
// of another sorts by what follows it), embedded commas (so different
// rows share one key and only the sort's tie handling places them) and
// prefix pairs.
func TestSortRowsMatchesJoinOrder(t *testing.T) {
	tokens := []string{"a", "b", "ab", "aa", "a,", ",a", ",", "b,", "#", "!", "+", " ", "a ", "a#", "a!", "a+", "", "⊥", "é"}
	ties := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]string, rng.Intn(400))
		cols := 1 + rng.Intn(3)
		for i := range rows {
			if i > 0 && rng.Intn(8) == 0 {
				rows[i] = slices.Clone(rows[rng.Intn(i)]) // a duplicate row
				continue
			}
			if i > 0 && rng.Intn(4) == 0 {
				// An earlier row's key cut at other commas: a different row
				// with the same key, when the key has commas enough.
				pieces := strings.Split(strings.Join(rows[rng.Intn(i)], ","), ",")
				if cut := rng.Perm(len(pieces) - 1)[:min(cols-1, len(pieces)-1)]; len(cut) == cols-1 {
					slices.Sort(cut)
					row, from := make([]string, 0, cols), 0
					for _, c := range cut {
						row = append(row, strings.Join(pieces[from:c+1], ","))
						from = c + 1
					}
					rows[i] = append(row, strings.Join(pieces[from:], ","))
					continue
				}
			}
			rows[i] = make([]string, cols)
			for j := range rows[i] {
				var b strings.Builder
				for k := rng.Intn(3); k >= 0; k-- {
					b.WriteString(tokens[rng.Intn(len(tokens))])
				}
				rows[i][j] = b.String()
			}
		}
		want := make([][]string, len(rows))
		for i, r := range rows {
			want[i] = slices.Clone(r)
		}
		joinSort(want)
		SortRows(rows)
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("seed %d: SortRows order differs from the joined-row comparator:\ngot  %q\nwant %q", seed, rows, want)
		}
		for i := 1; i < len(want); i++ {
			if strings.Join(want[i-1], ",") == strings.Join(want[i], ",") && !slices.Equal(want[i-1], want[i]) {
				ties++
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d adjacent pairs of different rows with one key: the tie order is not exercised", ties)
	}
}

// BenchmarkNames2D renders and sorts an answer the size of LUBM Q8's on
// LUBM(48): 3,490 rows of two LUBM-style IRIs.
func BenchmarkNames2D(b *testing.B) {
	benchNames2D(b, func(i int) (string, string) {
		return fmt.Sprintf("http://www.Department%d.University%d.edu/UndergraduateStudent%d", i%15, i%3, i),
			fmt.Sprintf("http://www.Department%d.University%d.edu", i%15, i%3)
	})
}

// BenchmarkNames2DFragment is BenchmarkNames2D on IRIs with '#'
// fragments, as RDF data often has: '#' is below ',', so the answer is
// sorted by rowOrder on joined strings, not by name rank.
func BenchmarkNames2DFragment(b *testing.B) {
	benchNames2D(b, func(i int) (string, string) {
		return fmt.Sprintf("http://www.Department%d.University%d.edu/people#UndergraduateStudent%d", i%15, i%3, i),
			fmt.Sprintf("http://www.Department%d.University%d.edu/org#dept", i%15, i%3)
	})
}

func benchNames2D(b *testing.B, names func(i int) (x, y string)) {
	gb := graph.NewBuilder(nil)
	s := NewAnswerSet()
	for i := 0; i < 3490; i++ {
		x, y := names(i)
		s.Add(Answer{gb.Vertex(x), gb.Vertex(y)})
	}
	g := gb.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRows = s.Names2D(g)
	}
}

var sinkRows [][]string
