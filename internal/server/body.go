package server

// The /query body writer: one pass into one pooled buffer, straight from
// the answer rows, producing the bytes json.NewEncoder(w).Encode would
// write for the QueryResponse — which stays the schema, and which the
// tests hold the writer to — without building it.

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// bodyPool recycles response buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers the pool keeps: a rare huge answer's
// buffer goes back to the collector instead of staying pinned.
const maxPooledBody = 1 << 20

func getBody() *[]byte { return bodyPool.Get().(*[]byte) }

func putBody(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		*b = (*b)[:0]
		bodyPool.Put(b)
	}
}

// appendQueryHead opens a QueryResponse: its vars and the rows array,
// which appendRow fills and appendQueryTail closes.
func appendQueryHead(dst []byte, vars []string) []byte {
	dst = append(dst, `{"vars":`...)
	dst = appendStrings(dst, vars)
	return append(dst, `,"rows":[`...)
}

// appendRow appends one element of the rows array that appendQueryHead
// opened. Only the array's opening bracket can precede the first row.
func appendRow(dst []byte, row []string) []byte {
	if dst[len(dst)-1] != '[' {
		dst = append(dst, ',')
	}
	return appendStrings(dst, row)
}

// appendQueryTail closes the rows array and appends the fields of r that
// follow it, in QueryResponse's order, and the encoder's newline.
func appendQueryTail(dst []byte, r *QueryResponse) []byte {
	dst = append(dst, `],"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	dst = append(dst, `,"tookMs":`...)
	dst = appendFloat(dst, r.TookMs)
	dst = append(dst, `,"method":`...)
	dst = appendString(dst, r.Method)
	if r.Truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	return append(dst, "}\n"...)
}

// appendStrings appends ss as a JSON array of strings, or null when nil.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// jsonSafe marks the bytes encoding/json copies into a string unescaped
// (with HTML escaping on, json.Encoder's default). It leaves the bytes
// from utf8.RuneSelf up unmarked: they start runes that must be checked.
var jsonSafe = func() (safe [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it: a string with no byte to escape is one copy.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if jsonSafe[s[i]] {
			i++
			continue
		}
		if b := s[i]; b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // the other control bytes, and <, > and &
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1: // invalid UTF-8
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite f as encoding/json encodes a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6 or
// from 1e21, with the exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}
