package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The JSONL codec. RecordWriter emits every record in one canonical form,
//
//	{"user":"…","ts":<int>,"lat":<num>,"lng":<num>}\n
//
// and both directions handle that form with a fixed-schema byte codec.
// Everything else is left to encoding/json, so it defines which inputs are
// accepted, how they decode, the error text of those it rejects, and the
// bytes of every line the fast path cannot produce. The differential fuzz
// targets FuzzJSONLDecodeDifferential and FuzzJSONLEncodeDifferential hold
// the two paths to the same results.

const (
	jsonlBufSize = 16 << 10 // the scanner's read buffer
	maxCanonical = 1 << 10  // longest value the scanner waits for before falling back
	maxInterned  = 4096     // distinct users one scan keeps interned
)

// status is the outcome of matching the canonical form against a buffer.
type status int

const (
	parsed  status = iota // a complete canonical value
	partial               // the buffer ends inside a canonical prefix
	slow                  // not canonical: encoding/json decides
)

// jsonlScanner decodes a JSONL stream. Canonical records are parsed straight
// out of its buffer; the first value that is not canonical hands the buffered
// bytes and the rest of the stream to decodeJSONL. It reads only when its
// buffer holds no complete value, so a record reaches fn as soon as its last
// byte arrives.
type jsonlScanner struct {
	r        io.Reader
	buf      []byte
	pos, end int               // buf[pos:end] is read but not consumed
	err      error             // the first read error; io.EOF at end of input
	users    map[string]string // interned user ids, at most maxInterned
	fellBack bool              // the stream went to decodeJSONL
}

func newJSONLScanner(r io.Reader) *jsonlScanner {
	return &jsonlScanner{r: r, buf: make([]byte, jsonlBufSize), users: make(map[string]string)}
}

// scan delivers the stream's records to fn, numbering values from 1 in
// its errors.
func (s *jsonlScanner) scan(fn func(Record) error) error {
	for n := 1; ; n++ {
		var jr jsonRecord
		for {
			for s.pos < s.end && isSpace(s.buf[s.pos]) {
				s.pos++
			}
			if s.pos == s.end {
				if s.err == io.EOF {
					return nil
				}
				if s.err != nil {
					return s.fallback(n, fn)
				}
				s.fill()
				continue
			}
			used, st := s.canonical(s.buf[s.pos:s.end], &jr)
			if st == parsed {
				s.pos += used
				break
			}
			if st == slow || s.err != nil || s.end-s.pos >= maxCanonical {
				return s.fallback(n, fn)
			}
			s.fill()
		}
		rec, err := jr.record()
		if err != nil {
			return fmt.Errorf("trace: jsonl record %d: %w", n, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// fill reads once into the free end of the buffer, first moving the
// unconsumed bytes to the front when the buffer is full. A partial value is
// shorter than maxCanonical, so the move always leaves room.
func (s *jsonlScanner) fill() {
	if s.end == len(s.buf) {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	s.err = err
}

// fallback decodes value n onwards with encoding/json, from the buffered
// bytes and then the reader, or the read error the scanner already saw.
func (s *jsonlScanner) fallback(n int, fn func(Record) error) error {
	s.fellBack = true
	rest := s.r
	if s.err != nil {
		rest = errReader{s.err}
	}
	return decodeJSONL(io.MultiReader(bytes.NewReader(s.buf[s.pos:s.end]), rest), n, fn)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJSONL is the general JSONL decoder: one encoding/json value per
// record, the first numbered n.
func decodeJSONL(r io.Reader, n int, fn func(Record) error) error {
	dec := json.NewDecoder(r)
	for ; ; n++ {
		var jr jsonRecord
		if err := dec.Decode(&jr); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("trace: jsonl record %d: %w", n, err)
		}
		rec, err := jr.record()
		if err != nil {
			return fmt.Errorf("trace: jsonl record %d: %w", n, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// canonical matches the canonical form at the start of b: a user of
// printable ASCII without quotes or backslashes, no whitespace, the keys in
// RecordWriter's order, and numbers that strconv parses without error (the
// cases encoding/json rejects with a type error). It fills jr and returns the
// value's length when it is parsed.
func (s *jsonlScanner) canonical(b []byte, jr *jsonRecord) (int, status) {
	i, st := literal(b, 0, `{"user":"`)
	if st != parsed {
		return 0, st
	}
	j := i
	for j < len(b) && b[j] >= 0x20 && b[j] < 0x7f && b[j] != '"' && b[j] != '\\' {
		j++
	}
	user := b[i:j]
	if i, st = literal(b, j, `","ts":`); st != parsed {
		return 0, st
	}
	if j, st = number(b, i, ','); st != parsed {
		return 0, st
	}
	ts, err := strconv.ParseInt(string(b[i:j]), 10, 64)
	if err != nil {
		return 0, slow
	}
	var lat, lng float64
	if i, st = literal(b, j, `,"lat":`); st != parsed {
		return 0, st
	}
	if i, lat, st = floatField(b, i, ','); st != parsed {
		return 0, st
	}
	if i, st = literal(b, i, `,"lng":`); st != parsed {
		return 0, st
	}
	if i, lng, st = floatField(b, i, '}'); st != parsed {
		return 0, st
	}
	*jr = jsonRecord{User: s.intern(user), Unix: ts, Lat: lat, Lng: lng}
	return i + 1, parsed
}

// intern returns the user id for b without allocating when this scan has
// seen it before.
func (s *jsonlScanner) intern(b []byte) string {
	if u, ok := s.users[string(b)]; ok {
		return u
	}
	u := string(b)
	if len(s.users) == maxInterned {
		clear(s.users)
	}
	s.users[u] = u
	return u
}

// literal matches lit at b[i:] and returns the index after it.
func literal(b []byte, i int, lit string) (int, status) {
	n := min(len(b)-i, len(lit))
	switch {
	case string(b[i:i+n]) != lit[:n]:
		return i, slow
	case n < len(lit):
		return i, partial
	}
	return i + n, parsed
}

// floatField parses the number at b[i:], which must be followed by term, and
// returns the index of term.
func floatField(b []byte, i int, term byte) (int, float64, status) {
	j, st := number(b, i, term)
	if st != parsed {
		return i, 0, st
	}
	f, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return i, 0, slow
	}
	return j, f, parsed
}

// number matches the JSON number grammar at b[i:] up to term and returns the
// index of term: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func number(b []byte, i int, term byte) (int, status) {
	var st status
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, st = digits(b, i, '1'); st != parsed {
		return i, st
	}
	if i < len(b) && b[i] == '.' {
		if i, st = digits(b, i+1, '0'); st != parsed {
			return i, st
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, st = digits(b, i, '0'); st != parsed {
			return i, st
		}
	}
	switch {
	case i == len(b):
		return i, partial
	case b[i] != term:
		return i, slow
	}
	return i, parsed
}

// digits matches a run of decimal digits at b[i:], the first of them at
// least first, and returns the index after it.
func digits(b []byte, i int, first byte) (int, status) {
	switch {
	case i == len(b):
		return i, partial
	case b[i] < first || b[i] > '9':
		return i, slow
	}
	for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
	}
	return i, parsed
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// appendJSONL appends the line encoding/json's Encoder writes for jr, or
// reports false when that line needs encoding/json: a user with a byte that
// it escapes (or might: anything outside printable ASCII), or a non-finite
// coordinate, which it rejects.
func appendJSONL(b []byte, jr jsonRecord) ([]byte, bool) {
	for i := 0; i < len(jr.User); i++ {
		switch c := jr.User[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return b, false
		}
	}
	if !finite(jr.Lat) || !finite(jr.Lng) {
		return b, false
	}
	b = append(b, `{"user":"`...)
	b = append(b, jr.User...)
	b = append(b, `","ts":`...)
	b = strconv.AppendInt(b, jr.Unix, 10)
	b = append(b, `,"lat":`...)
	b = appendFloat(b, jr.Lat)
	b = append(b, `,"lng":`...)
	b = appendFloat(b, jr.Lng)
	return append(b, "}\n"...), true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat formats f as encoding/json does: the shortest representation,
// in exponent form outside [1e-6, 1e21) with a two-digit exponent trimmed
// to one (1e-07 → 1e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
