// Command benchrunner regenerates every table and figure of the paper's
// evaluation (Section VI) at laptop scale:
//
//	benchrunner -exp all -n 20
//	benchrunner -exp evalQ -dataset lubm
//
// Experiments: stats (Table IV), rewriteQ (Fig 4a/b), evalQ (Fig 4c/d),
// rewriteO (Fig 4e/f), evalO (Fig 4g/h), sensitivity (Fig 4i/j),
// scale (Fig 4k/l), cdf (Fig 4m/n), endtoend (Fig 4o), memory (Fig 4p),
// rewritesize (Exp-2), reallife (Exp-2), bench (machine-readable
// ns/op, B/op and allocs/op rows written to -bench-out as JSON).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ogpa/internal/gen"
	"ogpa/internal/harness"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment to run (see package doc)")
		dataset     = flag.String("dataset", "", "restrict per-dataset experiments: dbpedia | npd | lubm | owl2bench")
		n           = flag.Int("n", 20, "queries per workload set (paper: 100)")
		seed        = flag.Int64("seed", 1, "workload seed")
		evalTimeout = flag.Duration("eval-timeout", 5*time.Second, "per-query evaluation limit")
		rwTimeout   = flag.Duration("rewrite-timeout", 2*time.Second, "per-query rewriting limit")
		markdown    = flag.Bool("markdown", false, "emit markdown tables (for EXPERIMENTS.md)")
		benchOut    = flag.String("bench-out", "bench-rows.json", "output path for -exp bench")
	)
	flag.Parse()

	// -exp bench short-circuits the table experiments: it runs the
	// machine-readable benchmark suite (the within-run gates plus the
	// DAF csr-vs-map rows) and writes JSON for CI and plotting scripts.
	if *exp == "bench" {
		if err := runBenchJSON(*benchOut, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchOut)
		return
	}

	s := harness.NewSuite()
	s.QueriesPerSet = *n
	s.Seed = *seed
	s.Runner.EvalTimeout = *evalTimeout
	s.Runner.RewriteTimeout = *rwTimeout

	datasets := s.Datasets()
	pick := func(name string) *gen.Dataset {
		for _, d := range datasets {
			switch name {
			case "dbpedia":
				if d.Name == "DBpedia" {
					return d
				}
			case "npd":
				if d.Name == "NPD" {
					return d
				}
			case "lubm":
				if len(d.Name) >= 4 && d.Name[:4] == "LUBM" {
					return d
				}
			case "owl2bench":
				if len(d.Name) >= 4 && d.Name[:4] == "OWL2" {
					return d
				}
			}
		}
		fmt.Fprintf(os.Stderr, "benchrunner: unknown dataset %q\n", name)
		os.Exit(2)
		return nil
	}

	perDataset := datasets[:]
	if *dataset != "" {
		perDataset = []*gen.Dataset{pick(*dataset)}
	} else if *exp != "all" && *exp != "stats" && *exp != "endtoend" && *exp != "memory" && *exp != "reallife" && *exp != "scale" {
		// The per-dataset figure experiments default to the two datasets
		// the paper plots: DBpedia and LUBM.
		perDataset = []*gen.Dataset{pick("dbpedia"), pick("lubm")}
	}

	emit := func(t *harness.Table) {
		if *markdown {
			t.Markdown(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}

	run := func(name string) {
		switch name {
		case "stats":
			emit(s.TableIV(datasets))
		case "rewriteQ":
			for _, d := range perDataset {
				emit(s.RewriteVaryQ(d))
			}
		case "evalQ":
			for _, d := range perDataset {
				emit(s.EvalVaryQ(d))
			}
		case "rewriteO":
			for _, d := range perDataset {
				emit(s.RewriteVaryO(d))
			}
		case "evalO":
			for _, d := range perDataset {
				emit(s.EvalVaryO(d))
			}
		case "sensitivity":
			for _, d := range perDataset {
				emit(s.Sensitivity(d))
			}
		case "scale":
			emit(s.Scalability(func(u int) *gen.Dataset {
				return gen.LUBM(gen.LUBMConfig{Universities: u, Seed: s.Seed})
			}, []int{4, 8, 12, 16}))
			emit(s.Scalability(func(u int) *gen.Dataset {
				return gen.OWL2Bench(gen.OWL2BenchConfig{Universities: u, Seed: s.Seed})
			}, []int{4, 8, 12, 16}))
		case "cdf":
			for _, d := range perDataset {
				emit(s.CDF(d))
			}
		case "endtoend":
			emit(s.EndToEnd(datasets))
		case "memory":
			emit(s.Memory(datasets))
		case "rewritesize":
			for _, d := range perDataset {
				emit(s.RewriteSize(d))
			}
		case "reallife":
			emit(s.RealLife())
		default:
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{
			"stats", "rewriteQ", "evalQ", "rewriteO", "evalO", "sensitivity",
			"scale", "cdf", "endtoend", "memory", "rewritesize", "reallife",
		} {
			if name != "stats" && name != "endtoend" && name != "memory" && name != "reallife" && name != "scale" && *dataset == "" {
				perDataset = []*gen.Dataset{pick("dbpedia"), pick("lubm")}
			}
			run(name)
		}
		return
	}
	run(*exp)
}
