package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, both passes, on a small KB with 1 s
// windows and holds the output against BENCHMARK.json: every declared
// workload and metric is emitted and nothing else is, no answer check
// fails, and every trace parses with each span's parent present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs for about a minute")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "2", "-seconds", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	cfg := &config{}
	if err := cfg.locate(); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]string{} // metric -> unit
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, m := range append(append([]declaredMetric{}, bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json: bad metric name %q", m.Name)
		}
		if unitOf(m.Name) != m.Unit {
			t.Errorf("BENCHMARK.json declares %s in %q, the program emits %q", m.Name, m.Unit, unitOf(m.Name))
		}
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(endToEnd)+len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program has %d", len(declared), len(endToEnd)+len(perLayer))
	}

	// Metric lines are "workload metric value unit [n=samples]".
	emitted := map[string]map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || strings.HasPrefix(line, "{") {
			continue
		}
		unit, ok := declared[f[1]]
		if !ok {
			t.Errorf("emitted metric %q is not in BENCHMARK.json", f[1])
		} else if unit != f[3] {
			t.Errorf("%s emitted in %q, declared in %q", f[1], f[3], unit)
		}
		if emitted[f[0]] == nil {
			emitted[f[0]] = map[string]bool{}
		}
		emitted[f[0]][f[1]] = true
	}
	if len(emitted) != len(bf.Workloads) {
		t.Errorf("emitted %d workloads, BENCHMARK.json declares %d", len(emitted), len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		for m := range declared {
			if !emitted[w.Name][m] {
				t.Errorf("workload %s did not emit %s", w.Name, m)
			}
		}
		checkTrace(t, filepath.Join(cfg.root, "bench", "out", "trace-"+w.Name+".jsonl"))
	}

	// The last line is the driver's.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("result line reports correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	var spans []span
	ids := map[int64]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if s.EndNs < s.StartNs || s.Name == "" {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		spans = append(spans, s)
		ids[s.ID] = true
	}
	if err := sc.Err(); err != nil {
		t.Errorf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the trace", path, s.ID, s.Name, s.Parent)
		}
	}
}
