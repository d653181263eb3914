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

// joinSort is the comparator SortRows replaced: rows by their cells
// joined with ",". On cells without a byte at or below ',' it orders rows
// as SortRows does, so the responses it rendered stay byte-identical.
func joinSort(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		return strings.Join(rows[i], ",") < strings.Join(rows[j], ",")
	})
}

// lowByte reports whether some cell of rows holds a byte at or below ','.
func lowByte(rows [][]string) bool {
	for _, r := range rows {
		for _, c := range r {
			if strings.IndexFunc(c, func(r rune) bool { return r <= ',' }) >= 0 {
				return true
			}
		}
	}
	return false
}

// TestSortRowsCellOrder pins SortRows to the cell-by-cell order on random
// rows whose cells hold bytes below ',' (so a cell that is a prefix of
// another sorts before it), embedded commas (so different rows share one
// joined key: ["a,b" "c"] and ["a" "b,c"]), prefix pairs and duplicates.
// Half the seeds draw only tokens without such bytes; there the order
// must be joinSort's too.
func TestSortRowsCellOrder(t *testing.T) {
	all := []string{"a", "b", "ab", "aa", "a,", ",a", ",", "b,", "#", "!", "+", " ", "a ", "a#", "a!", "a+", "", "⊥", "é"}
	high := []string{"a", "b", "ab", "aa", "ba", "", "⊥", "é", "aé", "-", "a-"}
	ties, pinned := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tokens := all
		if seed%2 == 0 {
			tokens = high
		}
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
		shuffled := slices.Clone(rows)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		want := slices.Clone(rows)
		slices.SortStableFunc(want, slices.Compare)
		SortRows(rows)
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("seed %d: SortRows differs from the cell-by-cell order:\ngot  %q\nwant %q", seed, rows, want)
		}
		SortRows(shuffled)
		if !reflect.DeepEqual(shuffled, rows) {
			t.Fatalf("seed %d: SortRows depends on the input order:\ngot  %q\nwant %q", seed, shuffled, rows)
		}
		if !lowByte(rows) {
			joined := slices.Clone(shuffled)
			joinSort(joined)
			if !reflect.DeepEqual(joined, rows) {
				t.Fatalf("seed %d: on cells without a low byte, SortRows differs from the joined-row order:\ngot  %q\nwant %q", seed, rows, joined)
			}
			pinned++
		}
		for i := 1; i < len(rows); i++ {
			if strings.Join(rows[i-1], ",") == strings.Join(rows[i], ",") && !slices.Equal(rows[i-1], rows[i]) {
				ties++
			}
		}
	}
	if ties < 100 || pinned < 100 {
		t.Fatalf("%d adjacent pairs of different rows with one joined key, %d inputs checked against joinSort: the generator lost its cases", ties, pinned)
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
// fragments, as RDF data often has.
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
