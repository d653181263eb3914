package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ogpa/internal/dllite"
	"ogpa/internal/snap"
)

// The persistence suite measures snapshot save/load at the LUBM
// benchmark scale and the headline comparison — cold start (parse +
// intern + CSR build) against loading the same graph from a binary
// snapshot. WAL append and replay are priced by bench/ (snap.*).

// benchSnapshotSave: one op = encode + checksum + atomic write of the
// full workload graph.
func (w *benchWorkload) benchSnapshotSave(dir string) func(*testing.B) {
	path := filepath.Join(dir, "save.snap")
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := snap.SaveSnapshot(path, w.g, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSnapshotLoad: one op = read + verify + rebuild the graph (CSR
// arrays adopted verbatim, derived indexes rebuilt).
func (w *benchWorkload) benchSnapshotLoad(dir string) func(*testing.B) {
	path := filepath.Join(dir, "load.snap")
	if err := snap.SaveSnapshot(path, w.g, 1); err != nil {
		return func(b *testing.B) { b.Fatal(err) }
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, _, err := snap.LoadSnapshot(path)
			if err != nil {
				b.Fatal(err)
			}
			if g.NumEdges() != w.g.NumEdges() {
				b.Fatal("snapshot lost edges")
			}
		}
	}
}

// aboxText renders the workload's ABox in the dllite text format, so the
// cold-start benchmark parses exactly the data the snapshot holds.
func aboxText(a *dllite.ABox) string {
	var sb strings.Builder
	for _, ca := range a.Concepts {
		fmt.Fprintf(&sb, "%s(%s)\n", ca.Concept, ca.Ind)
	}
	for _, ra := range a.Roles {
		fmt.Fprintf(&sb, "%s(%s, %s)\n", ra.Role, ra.Sub, ra.Obj)
	}
	return sb.String()
}

// benchStartupCold: one op = the whole no-snapshot startup path — parse
// the ABox text, intern every name, build the CSR graph.
func (w *benchWorkload) benchStartupCold(text string) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := dllite.ParseABox(strings.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			if g := a.Graph(nil); g.NumEdges() != w.g.NumEdges() {
				b.Fatal("cold rebuild lost edges")
			}
		}
	}
}

// runPersistBench appends the persistence rows to the suite and returns
// the two startup rows for the cold-vs-snapshot check.
func persistSuite(w *benchWorkload, dir string) []namedBench {
	return []namedBench{
		{"BenchmarkSnapshotSave", w.benchSnapshotSave(dir)},
		{"BenchmarkSnapshotLoad", w.benchSnapshotLoad(dir)},
		{"BenchmarkStartup/cold", w.benchStartupCold(aboxText(w.abox))},
		{"BenchmarkStartup/snapshot", w.benchSnapshotLoad(dir)},
	}
}

// checkStartupRows enforces the point of the snapshot format: loading
// one must beat re-parsing the data it came from, strictly.
func checkStartupRows(results []benchResult) error {
	var cold, snapLoad float64
	for _, r := range results {
		switch r.Name {
		case "BenchmarkStartup/cold":
			cold = r.NsPerOp
		case "BenchmarkStartup/snapshot":
			snapLoad = r.NsPerOp
		}
	}
	if cold == 0 || snapLoad == 0 {
		return fmt.Errorf("startup rows missing from benchmark results")
	}
	if snapLoad >= cold {
		return fmt.Errorf("snapshot load (%.0f ns/op) not faster than cold start (%.0f ns/op)", snapLoad, cold)
	}
	fmt.Fprintf(os.Stderr, "startup: snapshot load %.1fx faster than cold rebuild\n", cold/snapLoad)
	return nil
}
