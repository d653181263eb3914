package symbols

import (
	"cmp"
	"math/rand"
	"strings"
	"testing"
)

// TestOrderRanksCompareLikeNames: on random names, some interned after
// Thaw, two ranks compare like their names whenever they differ, equal
// odd ranks are one name, and only names outside the base share even
// ranks. Strings that were never interned rank by RankOf the same way.
func TestOrderRanksCompareLikeNames(t *testing.T) {
	letters := []string{"a", "b", "", "é", ",", "ab"}
	word := func(rng *rand.Rand) string {
		var b strings.Builder
		for k := rng.Intn(4); k >= 0; k-- {
			b.WriteString(letters[rng.Intn(len(letters))])
		}
		return b.String()
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			tbl.Intern(word(rng))
		}
		tbl.Thaw()
		for i := rng.Intn(20); i > 0; i-- {
			tbl.Intern(word(rng))
		}
		o := tbl.Order()
		type ranked struct {
			s    string
			r    uint32
			base bool
		}
		var all []ranked
		for id := ID(1); int(id) <= tbl.Len(); id++ {
			all = append(all, ranked{tbl.Name(id), o.Rank(id), int(id) < o.covers})
		}
		for i := 0; i < 10; i++ {
			s := word(rng)
			all = append(all, ranked{s, o.RankOf(s), tbl.Lookup(s) != None && int(tbl.Lookup(s)) < o.covers})
		}
		for _, x := range all {
			if x.r&1 == 1 != x.base {
				t.Fatalf("seed %d: %q (base %v) has rank %d", seed, x.s, x.base, x.r)
			}
			for _, y := range all {
				if x.r != y.r && cmp.Compare(x.r, y.r) != strings.Compare(x.s, y.s) {
					t.Fatalf("seed %d: ranks %d, %d of %q, %q compare unlike the names", seed, x.r, y.r, x.s, y.s)
				}
				if x.r == y.r && x.r&1 == 1 && x.s != y.s {
					t.Fatalf("seed %d: %q and %q share odd rank %d", seed, x.s, y.s, x.r)
				}
			}
		}
	}
}

// TestOrderFollowsLoading: on a table still being loaded, Order covers
// every name interned so far, rebuilding after new ones.
func TestOrderFollowsLoading(t *testing.T) {
	tbl := NewTable()
	b := tbl.Intern("b")
	if tbl.Order() != tbl.Order() {
		t.Fatal("an unchanged table rebuilt its order")
	}
	a := tbl.Intern("a")
	o := tbl.Order()
	if o.covers != 3 || o.Rank(a) != 1 || o.Rank(b) != 3 {
		t.Fatalf("order after a second intern: covers %d, ranks a=%d b=%d", o.covers, o.Rank(a), o.Rank(b))
	}
}
