// Command ogpa answers ontology-mediated queries from the command line:
//
//	ogpa -ontology onto.tbox -data data.abox 'q(x) :- Student(x), takesCourse(x, y)'
//
// Flags select the pipeline (GenOGP+OMatch by default, or one of the
// baselines), print the generated OGP (-explain), and bound the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ogpa"
	"ogpa/internal/prof"
)

func main() {
	var (
		ontologyPath = flag.String("ontology", "", "ontology file (SubClassOf/SubPropertyOf text format)")
		dataPath     = flag.String("data", "", "data file (.abox assertion lines or .nt triples)")
		baseline     = flag.String("baseline", "", "answer with a baseline instead: perfectref+daf | perfectrefopt+daf | datalog | saturate")
		explain      = flag.Bool("explain", false, "print the generated OGP before answering")
		maxResults   = flag.Int("max-results", 0, "cap the number of answers (0 = unlimited)")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
		workers      = flag.Int("workers", 0, "matcher worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		statsOnly    = flag.Bool("stats", false, "print KB statistics and exit")
		isSPARQL     = flag.Bool("sparql", false, "the query argument is a SPARQL SELECT query")
		minimize     = flag.Bool("minimize", false, "minimize the query (compute its core) before rewriting")
		consistency  = flag.Bool("check-consistency", false, "check the KB against DisjointWith axioms and exit")
		matchStats   = flag.Bool("match-stats", false, "print matcher work counters to stderr (GenOGP+OMatch and UCQ baselines; datalog/saturate have no counters)")
		insertPath   = flag.String("insert", "", "N-Triples file applied as ABox insertions before answering")
		deletePath   = flag.String("delete", "", "N-Triples file applied as ABox deletions before answering (after -insert)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		snapshotPath = flag.String("snapshot", "", "load the data graph from a binary snapshot instead of -data (skips parsing and interning)")
		saveSnapshot = flag.String("save-snapshot", "", "write the data graph (after -insert/-delete) as a binary snapshot to this file; exits if no query follows")
	)
	flag.Parse()

	profSession, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := profSession.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ogpa:", err)
		}
	}()

	if *ontologyPath == "" || (*dataPath == "") == (*snapshotPath == "") {
		fmt.Fprintln(os.Stderr, "usage: ogpa -ontology FILE (-data FILE | -snapshot FILE) [flags] 'q(x) :- ...'")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var kb *ogpa.KB
	if *snapshotPath != "" {
		kb, err = ogpa.OpenKBSnapshot(*ontologyPath, *snapshotPath)
	} else {
		kb, err = ogpa.OpenKB(*ontologyPath, *dataPath)
	}
	if err != nil {
		fail(err)
	}
	if *insertPath != "" || *deletePath != "" {
		if err := kb.EnableLiveData(0); err != nil {
			fail(err)
		}
		mutate := func(path string, apply func(*os.File) (int, error), verb string) {
			if path == "" {
				return
			}
			f, err := os.Open(path)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			n, err := apply(f)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "%s %d triples (epoch %d)\n", verb, n, kb.Epoch())
		}
		mutate(*insertPath, func(f *os.File) (int, error) { return kb.InsertTriples(f) }, "inserted")
		mutate(*deletePath, func(f *os.File) (int, error) { return kb.DeleteTriples(f) }, "deleted")
	}
	if *saveSnapshot != "" {
		if err := kb.SaveSnapshot(*saveSnapshot); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *saveSnapshot)
		if flag.NArg() == 0 && !*statsOnly && !*consistency {
			return
		}
	}
	if *statsOnly {
		fmt.Println(kb.Stats())
		if p := kb.TBox().ProfileString(); p != "" {
			fmt.Println("TBox profile (Table II):")
			fmt.Println(p)
		}
		return
	}
	if *consistency {
		vs, err := kb.CheckConsistency()
		if err != nil {
			fail(err)
		}
		if len(vs) == 0 {
			fmt.Println("consistent")
			return
		}
		for _, v := range vs {
			fmt.Println("violation:", v)
		}
		os.Exit(1)
	}
	if flag.NArg() != 1 {
		fail(fmt.Errorf("expected exactly one query argument, got %d", flag.NArg()))
	}
	query := flag.Arg(0)
	if *minimize && !*isSPARQL {
		min, err := ogpa.MinimizeQuery(query)
		if err != nil {
			fail(err)
		}
		if min != query {
			fmt.Fprintf(os.Stderr, "minimized to: %s\n", min)
		}
		query = min
	}

	if *explain {
		if err := printExplain(os.Stdout, kb, query, *isSPARQL); err != nil {
			fail(err)
		}
	}

	opt := ogpa.Options{MaxResults: *maxResults, Timeout: *timeout, Workers: *workers}
	start := time.Now()
	var ans *ogpa.Answers
	var st ogpa.MatchStats
	// Every pipeline with a prepared form answers through it, so the
	// matcher counters are there whenever -match-stats asks; datalog and
	// saturate (and unknown baselines, which error inside) have none.
	var pq *ogpa.PreparedQuery
	switch b := ogpa.Baseline(*baseline); {
	case b == ogpa.BaselineUCQ || b == ogpa.BaselineUCQOpt:
		pq, err = kb.PrepareBaseline(b, query, *timeout)
	case b != "":
		ans, err = kb.AnswerBaseline(b, query, opt)
	case *isSPARQL:
		pq, err = kb.PrepareSPARQL(query)
	default:
		pq, err = kb.Prepare(query)
	}
	if err == nil && pq != nil {
		ans, st, err = pq.AnswerWithStats(opt)
	}
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	if *matchStats && pq != nil {
		fmt.Fprintf(os.Stderr,
			"match stats: seed-candidates=%d cs-candidates=%d adj-pairs=%d indexed-edges=%d/%d bdd-nodes=%d steps=%d atom-evals=%d build=%v enum=%v truncated=%v\n",
			st.SeedCandidates, st.CSCandidates, st.AdjPairs, st.IndexedEdges, st.PatternEdges, st.BDDNodes, st.Steps, st.AtomEvals,
			time.Duration(st.BuildNanos), time.Duration(st.EnumNanos), st.Truncated)
	}

	for i, v := range ans.Vars {
		if i > 0 {
			fmt.Print("\t")
		}
		fmt.Print(v)
	}
	fmt.Println()
	for _, row := range ans.Rows {
		for i, c := range row {
			if i > 0 {
				fmt.Print("\t")
			}
			fmt.Print(c)
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "%d answers in %v\n", ans.Len(), elapsed)
}

// printExplain writes the OGP that GenOGP generates for query — a SPARQL
// SELECT when sparql is set, a CQ otherwise — and the provenance of its
// conditions.
func printExplain(w io.Writer, kb *ogpa.KB, query string, sparql bool) error {
	rewrite := kb.Rewrite
	if sparql {
		rewrite = kb.RewriteSPARQL
	}
	rw, err := rewrite(query)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated OGP (#COND=%d):\n%s\n", rw.CondCount(), rw.Explain())
	fmt.Fprintf(w, "condition provenance:\n%s\n", rw.ExplainProvenance())
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ogpa:", err)
	os.Exit(1)
}
