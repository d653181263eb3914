package main

// The metric names and units this program emits. BENCHMARK.json declares
// the same lists with directions and bounds; bench_test.go fails when the
// two drift apart.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the deployment sees; the untraced pass reports
// exactly these, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p95", "ms"},
	{"rss_mb", "MB"},
}

// perLayer is what the traced pass reports, named <module>.<metric>. The
// client.* rows are end-to-end observations that only some workloads have
// (write latency, delta visibility, crash recovery, failures); they are
// listed here because an end-to-end metric must exist on every workload.
var perLayer = []metricDef{
	{"server.overhead_ms_p50", "ms"},
	{"server.encode_us_p50", "us"},
	{"server.resp_bytes_mean", "B"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.errors", "count"},
	{"server.query_ms_p99", "ms"},
	{"cq.parse_us_p50", "us"},
	{"rewrite.generate_us_p50", "us"},
	{"rewrite.cond_count_mean", "count"},
	{"engine.prepare_ms_p50", "ms"},
	{"engine.prepare_bytes_mean", "B"},
	{"engine.cs_candidates_mean", "count"},
	{"engine.adj_pairs_mean", "count"},
	{"engine.run_ms_p50", "ms"},
	{"engine.run_bytes_mean", "B"},
	{"engine.steps_mean", "count"},
	{"engine.atom_evals_mean", "count"},
	{"engine.answers_per_step", "ratio"},
	{"ogpa.prepare_self_us_p50", "us"},
	{"ogpa.render_us_p50", "us"},
	{"ogpa.render_bytes_mean", "B"},
	{"ogpa.load_ms", "ms"},
	{"delta.insert_ms_p50", "ms"},
	{"delta.insert_bytes_mean", "B"},
	{"delta.materialize_ms_p50", "ms"},
	{"delta.materialize_bytes_mean", "B"},
	{"delta.compact_ms_p50", "ms"},
	{"delta.compactions", "count"},
	{"delta.overlay_ops_max", "count"},
	{"snap.wal_append_us_p50", "us"},
	{"snap.wal_bytes_per_user_byte", "ratio"},
	{"snap.checkpoint_ms_p50", "ms"},
	{"snap.snapshot_bytes_per_user_byte", "ratio"},
	{"snap.load_ms", "ms"},
	{"snap.replay_ms", "ms"},
	{"inc.advance_ms_p50", "ms"},
	{"inc.recompute_ms_p50", "ms"},
	{"inc.maintain_speedup", "ratio"},
	{"inc.rebuilds", "count"},
	{"inc.deltas", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"client.write_ms_p50", "ms"},
	{"client.visible_ms_p50", "ms"},
	{"client.recover_s", "s"},
	{"client.error_share", "ratio"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// compareSets is the repeatability self-check: for every end-to-end metric
// of every workload it prints the first and the last set's values, their
// difference as a share of the first, and the bound; it reports whether
// every difference stayed within its bound, in either direction.
func compareSets(w io.Writer, root string, sets [][]*result) (bool, error) {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return false, err
	}
	first, last := sets[0], sets[len(sets)-1]
	ok := true
	for i, a := range first {
		if a.Traced {
			continue
		}
		b := last[i]
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name], b.Metrics[m.Name]
			diff := math.Abs(vb-va) / va
			verdict := "within"
			if diff > m.Bound {
				verdict = "EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "repeat %s %s %v %v %s diff=%.4f bound=%.2f %s\n", a.Workload, m.Name, va, vb, m.Unit, diff, m.Bound, verdict)
		}
	}
	return ok, nil
}
