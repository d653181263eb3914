package match

import (
	"fmt"
	"testing"

	"ogpa/internal/cq"
	"ogpa/internal/gen"
	"ogpa/internal/rewrite"
)

// BenchmarkRunManyRows runs a prepared plan whose search is one step per
// answer: q(x) :- Student(x) rewritten over the LUBM ontology, on
// LUBM(48): 3,490 students. Its cost is the answer path (emit,
// deduplication, the fan-out merge), not the search.
func BenchmarkRunManyRows(b *testing.B) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 48, Seed: 1})
	res, err := rewrite.Generate(cq.MustParse("q(x) :- Student(x)"), d.TBox)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := Prepare(res.Pattern, d.Graph(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		opts := Options{Workers: w}
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, _, err := pr.Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				if ans.Len() == 0 {
					b.Fatal("no answers")
				}
			}
		})
	}
}
