package qgen

import (
	"testing"

	"ogpa/internal/daf"
	"ogpa/internal/gen"
)

func TestRandomWalkShape(t *testing.T) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 1})
	for _, size := range []int{4, 8, 12} {
		qs := RandomWalk(d.Graph(), d.TBox, DefaultConfig(size, 99))
		if len(qs) != 100 {
			t.Fatalf("size %d: generated %d queries", size, len(qs))
		}
		for _, q := range qs {
			if q.Size() != size {
				t.Fatalf("query has %d atoms, want %d: %s", q.Size(), size, q)
			}
			if len(q.Head) == 0 {
				t.Fatalf("no distinguished variables: %s", q)
			}
			if !q.Connected() {
				t.Fatalf("disconnected query: %s", q)
			}
		}
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 1})
	a := RandomWalk(d.Graph(), d.TBox, DefaultConfig(4, 5))
	b := RandomWalk(d.Graph(), d.TBox, DefaultConfig(4, 5))
	if len(a) != len(b) {
		t.Fatal("non-deterministic count")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("query %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestQueriesAreGeneralized(t *testing.T) {
	// At least some queries must mention non-leaf predicates (generalized),
	// so the ontology has rules to apply.
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 1})
	qs := RandomWalk(d.Graph(), d.TBox, DefaultConfig(8, 17))
	superNames := map[string]bool{
		"Professor": true, "Faculty": true, "Employee": true, "Person": true,
		"Student": true, "Publication": true, "Organization": true,
		"degreeFrom": true, "memberOf": true, "worksFor": true, "Course": true,
	}
	hits := 0
	for _, q := range qs {
		for _, a := range q.Atoms {
			if superNames[a.Pred] {
				hits++
				break
			}
		}
	}
	if hits < len(qs)/4 {
		t.Fatalf("only %d/%d queries touch the hierarchy", hits, len(qs))
	}
}

func TestWalkQueriesHaveAnswers(t *testing.T) {
	// Before generalization the walk is an embedding; generalization only
	// widens. Spot-check with direct evaluation (no ontology).
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 2})
	g := d.Graph()
	qs := RandomWalk(g, d.TBox, Config{
		Size: 4, Count: 20, Seed: 3,
		ConceptAtomProb: 0.25, DistinguishedProb: 0.3,
		// GeneralizeProb 0: the raw walks must all have matches.
	})
	for _, q := range qs {
		res, _, err := daf.EvalCQ(q, g, daf.Options{Limits: daf.Limits{MaxResults: 1}})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if res.Len() == 0 {
			t.Fatalf("walk query without answers: %s", q)
		}
	}
}

func TestRealLifeQuerySets(t *testing.T) {
	lubm := LUBMQueries()
	if len(lubm) != 14 {
		t.Fatalf("LUBM queries = %d, want 14", len(lubm))
	}
	o2b := OWL2BenchQueries()
	if len(o2b) != 10 {
		t.Fatalf("OWL2Bench queries = %d", len(o2b))
	}
	dbp := DBpediaQueries()
	if len(dbp) != 10 {
		t.Fatalf("DBpedia queries = %d", len(dbp))
	}
	// Over 70% of the LSQ-style queries have fewer than 4 atoms, as the
	// paper reports for real-life queries.
	small := 0
	for _, q := range dbp {
		if q.Size() < 4 {
			small++
		}
	}
	if small*10 < 7*len(dbp) {
		t.Fatalf("only %d/%d DBpedia queries are small", small, len(dbp))
	}
	// All referenced predicates must exist in the generated datasets'
	// ontologies (sanity against schema drift).
	lubmTB := gen.LUBMTBox()
	cn, rn := lubmTB.ConceptNames(), lubmTB.RoleNames()
	for _, q := range lubm {
		for _, a := range q.Atoms {
			if a.IsRole && !rn[a.Pred] {
				t.Errorf("LUBM query role %q not in ontology (%s)", a.Pred, q)
			}
			if !a.IsRole && !cn[a.Pred] {
				t.Errorf("LUBM query concept %q not in ontology (%s)", a.Pred, q)
			}
		}
	}
	o2bTB := gen.OWL2BenchTBox()
	cn, rn = o2bTB.ConceptNames(), o2bTB.RoleNames()
	for _, q := range o2b {
		for _, a := range q.Atoms {
			if a.IsRole && !rn[a.Pred] {
				t.Errorf("OWL2Bench query role %q not in ontology (%s)", a.Pred, q)
			}
			if !a.IsRole && !cn[a.Pred] {
				t.Errorf("OWL2Bench query concept %q not in ontology (%s)", a.Pred, q)
			}
		}
	}
}

func TestLUBMQueriesAnswerable(t *testing.T) {
	// The simple hierarchy queries must have answers on generated data
	// after rewriting; spot-check Q6 (all students) directly — the label
	// hierarchy makes plain evaluation incomplete, so just require the
	// graph to contain undergrads.
	d := gen.LUBM(gen.LUBMConfig{Universities: 1, Seed: 1})
	g := d.Graph()
	q14 := LUBMQueries()[13]
	res, _, err := daf.EvalCQ(q14, g, daf.Options{Limits: daf.Limits{MaxResults: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("Q14 (undergraduates) has no direct matches on generated data")
	}
}
