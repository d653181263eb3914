// Package rdf implements the triple-data side of the paper's experimental
// pipeline: a hand-rolled parser for an N-Triples subset (no external RDF
// library is used anywhere in this repository) and the *type-aware
// transformation* of [Kim et al., VLDB'15] cited by the paper, which turns a
// triple dataset into a directed labeled attributed graph:
//
//   - every subject/object resource becomes a vertex;
//   - rdf:type triples become vertex labels;
//   - triples with a resource object become edges labeled by the predicate;
//   - triples with a literal object become vertex attributes.
package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ogpa/internal/graph"
)

// TypePredicate is the predicate treated as the vertex-label assignment.
// Both the full rdf:type IRI and the Turtle shorthand "a" are recognized.
const TypePredicate = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// ObjectKind discriminates the object of a triple.
type ObjectKind uint8

// Object kinds.
const (
	ObjectIRI ObjectKind = iota
	ObjectString
	ObjectInt
	ObjectFloat
)

// Triple is one parsed statement.
type Triple struct {
	Subject   string
	Predicate string
	Kind      ObjectKind
	Object    string  // IRI or string literal
	Int       int64   // when Kind == ObjectInt
	Float     float64 // when Kind == ObjectFloat
}

// ParseError reports a malformed line with its position.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s", e.Line, e.Msg)
}

// ParseTriples reads the N-Triples subset from r and streams each triple to
// emit. Supported term forms: <iri>, plain local names (bare words, an
// extension used by the synthetic generators), "literal", "literal"^^<type>,
// and integer/decimal literals after ^^xsd:integer/xsd:decimal detection.
// Lines starting with '#' and blank lines are skipped.
func ParseTriples(r io.Reader, emit func(Triple) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, lineNo)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return sc.Err()
}

func parseLine(line string, lineNo int) (Triple, error) {
	rest := line
	subj, rest, err := readTerm(rest, lineNo)
	if err != nil {
		return Triple{}, err
	}
	pred, rest, err := readTerm(rest, lineNo)
	if err != nil {
		return Triple{}, err
	}
	if pred.kind != termIRI {
		return Triple{}, &ParseError{lineNo, "predicate must be an IRI or bare name"}
	}
	obj, rest, err := readTerm(rest, lineNo)
	if err != nil {
		return Triple{}, err
	}
	rest = strings.TrimSpace(rest)
	if rest != "" && rest != "." {
		return Triple{}, &ParseError{lineNo, fmt.Sprintf("trailing garbage %q", rest)}
	}

	t := Triple{Subject: subj.text, Predicate: pred.text}
	if subj.kind != termIRI {
		return Triple{}, &ParseError{lineNo, "subject must be an IRI or bare name"}
	}
	if pred.text == "a" {
		t.Predicate = TypePredicate
	}
	switch obj.kind {
	case termIRI:
		t.Kind = ObjectIRI
		t.Object = obj.text
	case termLiteral:
		switch obj.dtype {
		case "http://www.w3.org/2001/XMLSchema#integer", "http://www.w3.org/2001/XMLSchema#int", "xsd:integer", "xsd:int":
			n, err := strconv.ParseInt(obj.text, 10, 64)
			if err != nil {
				return Triple{}, &ParseError{lineNo, "bad integer literal " + obj.text}
			}
			t.Kind = ObjectInt
			t.Int = n
		case "http://www.w3.org/2001/XMLSchema#decimal", "http://www.w3.org/2001/XMLSchema#double", "xsd:decimal", "xsd:double":
			f, err := strconv.ParseFloat(obj.text, 64)
			if err != nil {
				return Triple{}, &ParseError{lineNo, "bad decimal literal " + obj.text}
			}
			t.Kind = ObjectFloat
			t.Float = f
		default:
			// Untyped literals that look like integers are treated as such;
			// the synthetic datasets use this for years and indexes.
			if obj.dtype == "" {
				if n, err := strconv.ParseInt(obj.text, 10, 64); err == nil {
					t.Kind = ObjectInt
					t.Int = n
					break
				}
			}
			t.Kind = ObjectString
			t.Object = obj.text
		}
		if t.Kind == ObjectString {
			t.Object = obj.text
		}
	}
	return t, nil
}

type termKind uint8

const (
	termIRI termKind = iota
	termLiteral
)

type term struct {
	kind  termKind
	text  string
	dtype string
}

func readTerm(s string, lineNo int) (term, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return term{}, "", &ParseError{lineNo, "unexpected end of line"}
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return term{}, "", &ParseError{lineNo, "unterminated IRI"}
		}
		return term{kind: termIRI, text: s[1:end]}, s[end+1:], nil
	case '"':
		var b strings.Builder
		i := 1
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				default:
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
			i++
		}
		if i >= len(s) {
			return term{}, "", &ParseError{lineNo, "unterminated string literal"}
		}
		rest := s[i+1:]
		tm := term{kind: termLiteral, text: b.String()}
		if strings.HasPrefix(rest, "^^") {
			rest = rest[2:]
			if strings.HasPrefix(rest, "<") {
				end := strings.IndexByte(rest, '>')
				if end < 0 {
					return term{}, "", &ParseError{lineNo, "unterminated datatype IRI"}
				}
				tm.dtype = rest[1:end]
				rest = rest[end+1:]
			} else {
				end := strings.IndexAny(rest, " \t.")
				if end < 0 {
					end = len(rest)
				}
				tm.dtype = rest[:end]
				rest = rest[end:]
			}
		}
		return tm, rest, nil
	default:
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		word := s[:end]
		word = strings.TrimSuffix(word, ".")
		if word == "" {
			return term{}, "", &ParseError{lineNo, "empty term"}
		}
		rest := s[min(end, len(s)):]
		return term{kind: termIRI, text: word}, rest, nil
	}
}

// LocalName strips the namespace of an IRI, keeping the fragment or the last
// path segment. Bare names pass through unchanged.
func LocalName(iri string) string {
	if i := strings.LastIndexByte(iri, '#'); i >= 0 {
		return iri[i+1:]
	}
	if i := strings.LastIndexByte(iri, '/'); i >= 0 {
		return iri[i+1:]
	}
	return iri
}

// Transform applies the type-aware transformation to the triples read from r,
// adding them to the builder b. name rewrites IRIs (identity when nil), as
// in AddTriple; LocalName keeps vertex and edge labels aligned with
// ontology symbols. It returns the number of triples read.
func Transform(r io.Reader, b *graph.Builder, name func(string) string) (int, error) {
	n := 0
	err := ParseTriples(r, func(t Triple) error {
		n++
		AddTriple(b, t, name)
		return nil
	})
	return n, err
}

// AddTriple adds one triple to the builder under the type-aware mapping.
// name rewrites IRIs (identity when nil).
func AddTriple(b *graph.Builder, t Triple, name func(string) string) {
	if name == nil {
		name = func(s string) string { return s }
	}
	subj := name(t.Subject)
	switch {
	case t.Predicate == TypePredicate && t.Kind == ObjectIRI:
		b.AddLabel(subj, name(t.Object))
	case t.Kind == ObjectIRI:
		b.AddEdge(subj, name(t.Predicate), name(t.Object))
	case t.Kind == ObjectInt:
		b.SetAttr(subj, name(t.Predicate), graph.Int(t.Int))
	case t.Kind == ObjectFloat:
		b.SetAttr(subj, name(t.Predicate), graph.Float(t.Float))
	default:
		b.SetAttr(subj, name(t.Predicate), graph.String(t.Object))
	}
}

// Mutator is a sink for live ABox mutations under the same type-aware
// mapping AddTriple applies at load time: rdf:type triples touch vertex
// labels, resource-object triples touch edges, literal-object triples
// touch attributes. graph.Overlay implements it, so internal/delta
// applies each epoch's ops to the derivation directly; Builder
// intentionally does not (loads are insert-only).
type Mutator interface {
	AddLabel(vertex, label string)
	RemoveLabel(vertex, label string)
	AddEdge(from, label, to string)
	RemoveEdge(from, label, to string)
	SetAttr(vertex, name string, value graph.Value)
	// RemoveAttr deletes the attribute only when its current value equals
	// value: deleting a triple removes that assertion, not whatever value
	// happens to be stored now.
	RemoveAttr(vertex, name string, value graph.Value)
}

// ApplyTriple routes one triple to m under the type-aware mapping,
// as an insertion (del=false) or a deletion (del=true). name rewrites
// IRIs (identity when nil), mirroring AddTriple.
func ApplyTriple(m Mutator, t Triple, del bool, name func(string) string) {
	if name == nil {
		name = func(s string) string { return s }
	}
	subj := name(t.Subject)
	switch {
	case t.Predicate == TypePredicate && t.Kind == ObjectIRI:
		if del {
			m.RemoveLabel(subj, name(t.Object))
		} else {
			m.AddLabel(subj, name(t.Object))
		}
	case t.Kind == ObjectIRI:
		if del {
			m.RemoveEdge(subj, name(t.Predicate), name(t.Object))
		} else {
			m.AddEdge(subj, name(t.Predicate), name(t.Object))
		}
	case t.Kind == ObjectInt:
		applyAttr(m, del, subj, name(t.Predicate), graph.Int(t.Int))
	case t.Kind == ObjectFloat:
		applyAttr(m, del, subj, name(t.Predicate), graph.Float(t.Float))
	default:
		applyAttr(m, del, subj, name(t.Predicate), graph.String(t.Object))
	}
}

func applyAttr(m Mutator, del bool, vertex, attr string, v graph.Value) {
	if del {
		m.RemoveAttr(vertex, attr, v)
	} else {
		m.SetAttr(vertex, attr, v)
	}
}

// WriteTriple formats a triple in the same subset accepted by ParseTriples.
func WriteTriple(w io.Writer, t Triple) error {
	var err error
	switch t.Kind {
	case ObjectIRI:
		_, err = fmt.Fprintf(w, "<%s> <%s> <%s> .\n", t.Subject, t.Predicate, t.Object)
	case ObjectInt:
		_, err = fmt.Fprintf(w, "<%s> <%s> \"%d\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n", t.Subject, t.Predicate, t.Int)
	case ObjectFloat:
		_, err = fmt.Fprintf(w, "<%s> <%s> \"%g\"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n", t.Subject, t.Predicate, t.Float)
	default:
		_, err = fmt.Fprintf(w, "<%s> <%s> %q .\n", t.Subject, t.Predicate, t.Object)
	}
	return err
}
