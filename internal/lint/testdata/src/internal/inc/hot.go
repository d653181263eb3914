// Package inc is a lint fixture shaped like the incremental-maintenance
// subsystem. Its import path ends in internal/inc, which puts it on the
// internsafety hot-path list: every committed batch flows through this
// package, so label comparisons and membership probes must go through
// struct/integer keys, never raw-string maps.
package inc

// typePredicate mirrors rdf.TypePredicate: triple classification against
// a compile-time constant is a cheap guard and stays allowed.
const typePredicate = "rdf:type"

// assertion mirrors dllite.ConceptAssertion: a struct key hashes both
// fields at once, with no string-map probe per batch fact.
type assertion struct {
	concept string
	ind     string
}

// mirror is the sanctioned shape for per-batch state in this package:
// struct-keyed sets and integer-keyed tables.
type mirror struct {
	concepts map[assertion]bool
	byDepth  map[int]int
}

// mirrorBad indexes assertions by rendered text — one string hash per
// membership probe, on every batch.
type mirrorBad struct {
	byText map[string]bool // want:internsafety
}

// classify routes one triple by predicate; the constant comparison is a
// guard, not a per-candidate probe.
func classify(pred string) bool {
	return pred == typePredicate
}

// sameLabel compares two non-constant strings in batch-apply position.
func sameLabel(a, b string) bool {
	return a == b // want:internsafety
}

// touchedSet builds a per-batch individual set keyed by raw name.
func touchedSet() map[string]bool { // want:internsafety
	return nil
}

// registerSuppressed shows the escape hatch for one-time registration
// work outside the batch loop.
func registerSuppressed(a, b string) bool {
	//lint:ignore internsafety fixture: chain registration runs once, not per batch
	return a == b
}
