package server

import "fmt"

// answerMemoFixture is a serve-tier answer memo keyed like the plan
// cache: the stored rows are only valid for the (TBox fingerprint, epoch)
// the key names — a delta commit must strand every entry.
type answerMemoFixture struct {
	rows map[string][][]string
}

// Get looks a query's rows up by its composed memo key.
func (m *answerMemoFixture) Get(key string) ([][]string, bool) {
	rows, ok := m.rows[key]
	return rows, ok
}

// Put memoizes rows under the composed key.
func (m *answerMemoFixture) Put(key string, rows [][]string) {
	m.rows[key] = rows
}

// memoKeyFresh is the memo-key discipline: fingerprint AND epoch are
// key components, alongside the query text.
func memoKeyFresh(fingerprint string, epoch uint64, query string) string {
	return fmt.Sprintf("%s|%d|ans|%s", fingerprint, epoch, query)
}

// memoKeyStale omits the epoch: memoized answers would survive delta
// commits and serve rows from a graph that no longer exists.
func memoKeyStale(fingerprint, query string) string {
	key := fmt.Sprintf("%s|ans|%s", fingerprint, query) // want:epochkey
	return key
}

// memoGetStale hands a fingerprint-only key to the memo accessor.
func memoGetStale(m *answerMemoFixture, fingerprint string) ([][]string, bool) {
	return m.Get(fingerprint) // want:epochkey
}

// memoPutStale memoizes under a fingerprint-only key.
func memoPutStale(m *answerMemoFixture, fingerprint string, rows [][]string) {
	m.Put(fingerprint, rows) // want:epochkey
}

// memoPutFresh composes the key through the sanctioned helper — the
// epoch identifier appears in the argument expression.
func memoPutFresh(m *answerMemoFixture, fingerprint string, epoch uint64, rows [][]string) {
	m.Put(memoKeyFresh(fingerprint, epoch, "q(x) :- A(x)"), rows)
}

// memoIndexStale indexes the memo map directly by fingerprint.
func memoIndexStale(m *answerMemoFixture, fingerprint string) [][]string {
	return m.rows[fingerprint] // want:epochkey
}

// memoIndexFresh mixes the epoch into the inline key expression.
func memoIndexFresh(m *answerMemoFixture, fingerprint string, epoch uint64) [][]string {
	return m.rows[fmt.Sprintf("%s|%d|ans", fingerprint, epoch)]
}
