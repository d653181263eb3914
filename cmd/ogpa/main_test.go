package main

import (
	"strings"
	"testing"

	"ogpa"
)

// TestExplainSPARQL: `ogpa -explain -sparql` prints the generated OGP,
// and the SPARQL and CQ spellings of one query explain identically.
func TestExplainSPARQL(t *testing.T) {
	kb, err := ogpa.NewKB(strings.NewReader("Student SubClassOf some takesCourse\nPhD SubClassOf Student\n"),
		strings.NewReader("PhD(Ann)\nStudent(Bob)\ntakesCourse(Bob, DB101)\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sparql, cq strings.Builder
	if err := printExplain(&sparql, kb, `SELECT ?x WHERE { ?x <http://e/takesCourse> ?y . }`, true); err != nil {
		t.Fatal(err)
	}
	if err := printExplain(&cq, kb, `q(x) :- takesCourse(x, y)`, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sparql.String(), "generated OGP") || !strings.Contains(sparql.String(), "PhD") {
		t.Fatalf("-explain -sparql printed %q", sparql.String())
	}
	if sparql.String() != cq.String() {
		t.Fatalf("SPARQL explain\n%s\ndiffers from CQ explain\n%s", sparql.String(), cq.String())
	}
	if err := printExplain(&sparql, kb, `SELECT nope`, true); err == nil {
		t.Fatal("malformed SPARQL explained without error")
	}
}
