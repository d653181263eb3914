package main

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"testing"

	"ogpa/internal/match"
	"ogpa/internal/shard"
)

// The shard suite prices shard placement on the Fig. 4 evaluation
// workload: the same prepared plans run monolithically (Workers: 1, the
// inline recursion) and with Options.Sharder at N ∈ {2, 4, 8}. Prepare and Partition are hoisted — both are
// per-epoch artifacts a server amortizes across queries — so the rows
// isolate the enumeration cost of bucketing, per-shard goroutines and
// the ordered gather against plain sequential backtracking.

// shardFixture holds the hoisted plans and partitions.
type shardFixture struct {
	w        *benchWorkload
	prepared []*match.Prepared
	sets     map[int]*shard.Set
}

func buildShardFixture(w *benchWorkload) (*shardFixture, error) {
	f := &shardFixture{w: w, sets: map[int]*shard.Set{}}
	for _, p := range w.patterns {
		pr, err := match.Prepare(p, w.g, match.Options{})
		if err != nil {
			return nil, err
		}
		f.prepared = append(f.prepared, pr)
	}
	for _, n := range []int{2, 4, 8} {
		set := shard.Partition(w.g, n)
		if err := set.Verify(w.g); err != nil {
			return nil, err
		}
		f.sets[n] = set
	}
	return f, nil
}

// benchShardedEval: one op = the four Fig. 4 patterns enumerated once
// each. shards == 0 runs the monolithic sequential path; otherwise the
// run scatters over the hoisted n-shard partition.
func (f *shardFixture) benchShardedEval(shards int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pr := range f.prepared {
				opts := f.w.runOpts()
				if shards == 0 {
					opts.Workers = 1
				} else {
					opts.Sharder = f.sets[shards]
				}
				if _, _, err := pr.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// shardSuite returns the sharded-vs-monolithic evaluation rows.
func shardSuite(f *shardFixture) []namedBench {
	return []namedBench{
		{"BenchmarkShardedEval/mono", f.benchShardedEval(0)},
		{"BenchmarkShardedEval/shard2", f.benchShardedEval(2)},
		{"BenchmarkShardedEval/shard4", f.benchShardedEval(4)},
		{"BenchmarkShardedEval/shard8", f.benchShardedEval(8)},
	}
}

// shardSlowdownTolerance is the acceptance bound on the N=4 row when
// real parallelism is available: the sharded run must not be slower
// than monolithic beyond measurement noise; on multi-core hosts the
// row typically comes out ahead. shardSingleCoreTolerance applies when
// GOMAXPROCS is 1 — there the scatter path buys horizontal placement,
// not speedup (per-shard goroutines are pure scheduling overhead
// time-sliced over one core, measured up to ~1.6x), so the gate only
// rejects pathological regressions rather than demanding a win the
// topology structurally cannot deliver.
const (
	shardSlowdownTolerance   = 1.10
	shardSingleCoreTolerance = 2.0
)

// checkShardRows enforces the gate: the N=4 sharded evaluation must not
// be slower than the monolithic run on the Fig. 4 workload (within the
// tolerance for the host's available parallelism).
func checkShardRows(results []benchResult) error {
	var mono, shard4 float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkShardedEval/mono":
			mono = r.NsPerOp
		case "BenchmarkShardedEval/shard4":
			shard4 = r.NsPerOp
		}
	}
	if mono == 0 || shard4 == 0 {
		return fmt.Errorf("sharded rows missing from benchmark results")
	}
	tol := shardSlowdownTolerance
	if stdruntime.GOMAXPROCS(0) == 1 {
		tol = shardSingleCoreTolerance
	}
	if shard4 > mono*tol {
		return fmt.Errorf("sharded N=4 evaluation (%.0f ns/op) slower than monolithic (%.0f ns/op) beyond the %.0f%% tolerance",
			shard4, mono, (tol-1)*100)
	}
	fmt.Fprintf(os.Stderr, "sharded: N=4 at %.2fx monolithic wall-clock\n", shard4/mono)
	return nil
}
