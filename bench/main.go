// Command bench is the repository's benchmark: it generates a LUBM
// knowledge base and query workloads from a seed, builds and starts the real
// ogpaserver as a child process, drives it over HTTP from closed-loop
// clients, checks every answer, and prints end-to-end and per-layer metrics.
// BENCHMARK.json at the repository root declares the workloads and metrics;
// README.md beside this file explains them.
//
//	bash bench/run.sh -seed 1                       every workload, both passes
//	bash bench/run.sh -workload read_hot -trace 0   one pass of one workload
//	bash bench/run.sh -repeat 2                     repeatability self-check
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultScale is LUBM(48): the size at which read_hot's median query takes
// 1-10 ms over HTTP on the reference box (two cores), so that the layers
// under test, not the HTTP round trip, make up a request.
const defaultScale = 48

var workloadNames = []string{"read_hot", "read_uncached", "write_mix", "standing"}

type config struct {
	root      string // repository root
	serverBin string
	workDir   string // .bench_build/run: generated inputs, data directories, logs
	outDir    string // bench/out: result.json and traces
	seed      int64
	scale     int
	seconds   float64
	warmup    float64
	clients   int
	log       io.Writer // progress, one line per phase
}

func (cfg *config) logf(format string, args ...any) {
	fmt.Fprintf(cfg.log, "bench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", ")+" (default: all)")
		seed     = fs.Int64("seed", 1, "seed of the generated KB, queries and mutation batches")
		seconds  = fs.Float64("seconds", 10, "measured window per pass, in seconds")
		trace    = fs.String("trace", "", "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics); default: both")
		scale    = fs.Int("scale", defaultScale, "LUBM universities")
		repeat   = fs.Int("repeat", 1, "run the set this many times on the same seed and compare the end-to-end metrics against BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		names = []string{*workload}
	}
	var passes []bool
	switch *trace {
	case "":
		passes = []bool{false, true}
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	default:
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 || *scale < 1 || *repeat < 1 {
		fmt.Fprintf(stderr, "bench: -seconds, -scale and -repeat must be positive\n")
		return 2
	}
	cfg := &config{seed: *seed, scale: *scale, seconds: *seconds, clients: min(runtime.NumCPU(), 2), log: stderr}
	// Warm-up: caches fill and lazy set-up finishes before the window opens.
	cfg.warmup = max(cfg.seconds/5, 1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cfg.prepare(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	var sets [][]*result
	for i := 0; i < *repeat; i++ {
		var set []*result
		for _, name := range names {
			for _, traced := range passes {
				res, err := runPass(ctx, cfg, name, traced)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				printResult(stdout, res)
				set = append(set, res)
			}
		}
		sets = append(sets, set)
	}
	last := sets[len(sets)-1]
	if err := writeReport(cfg, last); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	if *repeat > 1 {
		ok, err := compareSets(stdout, cfg.root, sets)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	for _, res := range last {
		if res.Failed > 0 {
			for _, f := range res.Failures {
				fmt.Fprintf(stderr, "bench: %s: %s\n", res.Workload, f)
			}
			code = 1
		}
	}
	// The last line is the driver's: one JSON object for the last pass run.
	if err := json.NewEncoder(stdout).Encode(summary(last[len(last)-1])); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// locate finds the repository root above the working directory.
func (cfg *config) locate() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ogpaserver", "main.go")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return errors.New("cmd/ogpaserver not found: run from inside the repository")
		}
		dir = parent
	}
	cfg.root = dir
	cfg.workDir = filepath.Join(dir, ".bench_build", "run")
	cfg.outDir = filepath.Join(dir, "bench", "out")
	return nil
}

// prepare creates the working directories and builds the server.
func (cfg *config) prepare() error {
	if err := cfg.locate(); err != nil {
		return err
	}
	binDir := filepath.Join(cfg.root, ".bench_build", "bin")
	for _, d := range []string{cfg.workDir, cfg.outDir, binDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var err error
	cfg.serverBin, err = buildServer(cfg.root, binDir)
	return err
}

// runPass runs one pass of one workload from freshly generated inputs.
func runPass(ctx context.Context, cfg *config, name string, traced bool) (*result, error) {
	dir := filepath.Join(cfg.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	started := time.Now()
	in, err := buildInputs(cfg.seed, cfg.scale, dir)
	if err != nil {
		return nil, err
	}
	cfg.logf("%s: %s generated in %.1fs", name, in.kb.Stats(), time.Since(started).Seconds())
	p := &pass{cfg: cfg, in: in, dir: dir, traced: traced, ctx: ctx,
		res: &result{Workload: name, Traced: traced, Metrics: map[string]float64{}, Samples: map[string]int{}}}
	if traced {
		p.set("ogpa.load_ms", in.loadMs)
	}
	switch name {
	case "read_uncached":
		var set []query
		if set, err = in.uncachedSet(); err == nil {
			cfg.logf("%s: %d queries selected and checked against the oracle, %.1fs in", name, len(set), time.Since(started).Seconds())
			err = p.readWorkload(set, stridedOrder(len(set)))
		}
	default:
		var hot []query
		if hot, err = in.hotSet(); err != nil {
			break
		}
		cfg.logf("%s: %d queries selected and checked against the oracle, %.1fs in", name, len(hot), time.Since(started).Seconds())
		switch name {
		case "read_hot":
			err = p.readWorkload(hot, shuffledOrder(hotSlots(len(hot))))
		case "write_mix":
			err = p.writeMix(hot)
		case "standing":
			err = p.standing(hot)
		}
	}
	if err != nil {
		return nil, err
	}
	p.res.Dropped = in.dropped
	cfg.logf("%s: pass done in %.1fs, %d operations, %d failed", name, time.Since(started).Seconds(), p.res.Attempted, p.res.Failed)
	if traced {
		p.set("client.error_share", float64(p.res.Failed)/float64(p.res.Attempted))
		if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+name+".jsonl"), p.spans); err != nil {
			return nil, err
		}
	}
	// A pass reports exactly its declared metrics; a layer the workload
	// never enters reports 0.
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	metrics := make(map[string]float64, len(declared))
	for _, m := range declared {
		metrics[m.name] = p.res.Metrics[m.name]
	}
	p.res.Metrics = metrics
	return p.res, nil
}

func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%s %s %v %s", res.Workload, name, res.Metrics[name], unitOf(name))
		if n, ok := res.Samples[name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

// summary is the driver's result line.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func summary(res *result) summaryLine {
	s := summaryLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for name, v := range res.Metrics {
		s.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return s
}

// hostInfo is recorded beside every result: numbers from different hosts
// or commits are not comparable.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	NonTestLOC int    `json:"non_test_loc"`
}

func collectHostInfo(root string) hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	// Lines of non-test Go outside the benchmark: the size of the system
	// the numbers describe. Unreadable entries are skipped, not fatal.
	walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if b, err := os.ReadFile(path); err == nil {
				h.NonTestLOC += strings.Count(string(b), "\n")
			}
		}
		return nil
	})
	if walkErr != nil {
		h.NonTestLOC = 0
	}
	return h
}

// writeReport writes bench/out/result.json.
func writeReport(cfg *config, results []*result) error {
	report := struct {
		Seed    int64     `json:"seed"`
		Scale   int       `json:"scale"`
		Seconds float64   `json:"seconds"`
		Clients int       `json:"clients"`
		Time    string    `json:"time"`
		Host    hostInfo  `json:"host"`
		Passes  []*result `json:"passes"`
	}{cfg.seed, cfg.scale, cfg.seconds, cfg.clients, time.Now().UTC().Format(time.RFC3339), collectHostInfo(cfg.root), results}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(b, '\n'), 0o644)
}
