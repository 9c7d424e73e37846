package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/geo"
)

// The streaming scanner is the trust boundary once records arrive over
// sockets (internal/server feeds request bodies straight into it):
// malformed input must return an error, never panic, and every record it
// does deliver must satisfy the package invariants (non-empty user, valid
// coordinates). The committed corpus under testdata/fuzz seeds both
// targets with well-formed records and the malformed shapes that have
// tripped codecs elsewhere: truncated lines, wrong field counts, non-UTF8,
// huge numbers, NaN/Inf spellings, and nested/concatenated JSON.

// checkRecord asserts the scanner's per-record invariants.
func checkRecord(t *testing.T, rec Record) {
	t.Helper()
	if rec.User == "" {
		t.Fatal("scanner delivered a record with an empty user id")
	}
	if !rec.Point.Valid() {
		t.Fatalf("scanner delivered an invalid point: %v", rec.Point)
	}
}

func FuzzScanRecordsJSONL(f *testing.F) {
	f.Add([]byte("{\"user\":\"u1\",\"ts\":1211025600,\"lat\":37.7749,\"lng\":-122.4194}\n"))
	f.Add([]byte("{\"user\":\"u1\",\"ts\":1,\"lat\":1,\"lng\":2}\n{\"user\":\"u2\",\"ts\":2,\"lat\":3,\"lng\":4}\n"))
	f.Add([]byte("{\"user\":\"\",\"ts\":1,\"lat\":1,\"lng\":2}\n"))
	f.Add([]byte("{\"user\":\"u\",\"ts\":1,\"lat\":91,\"lng\":2}\n"))
	f.Add([]byte("{\"user\":\"u\",\"ts\":1,\"lat\":1e309,\"lng\":2}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte("{\"user\":\"u\",\"ts\":1,\"lat\":1,\"lng\":2"))
	f.Add([]byte("{}{}{}"))
	f.Add([]byte("[1,2,3]\n"))
	f.Add([]byte("{\"user\":\"\xff\xfe\",\"ts\":1,\"lat\":1,\"lng\":2}\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ScanRecords(bytes.NewReader(data), FormatJSONL, func(rec Record) error {
			checkRecord(t, rec)
			return nil
		})
	})
}

func FuzzScanRecordsCSV(f *testing.F) {
	f.Add([]byte("user,timestamp,lat,lng\nu1,1211025600,37.774900,-122.419400\n"))
	f.Add([]byte("user,timestamp,lat,lng\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,notatime,1,2\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,1,91,2\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,1,NaN,2\n"))
	f.Add([]byte("user,timestamp,lat,lng\n,1,1,2\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,1,1\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,1,1,2,3\n"))
	f.Add([]byte("wrong,header,entirely,here\nu1,1,1,2\n"))
	f.Add([]byte("user,timestamp\n"))
	f.Add([]byte("\"unclosed,quote\nu1,1,1,2\n"))
	f.Add([]byte("user,timestamp,lat,lng\nu1,9223372036854775808,1,2\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ScanRecords(bytes.NewReader(data), FormatCSV, func(rec Record) error {
			checkRecord(t, rec)
			return nil
		})
	})
}

// The JSONL codec's fast paths must be invisible: the differential targets
// below hold ScanRecords to the plain encoding/json decoder loop
// (decodeJSONL from the first value) and RecordWriter to json.Encoder, on
// the committed corpora under testdata/fuzz and whatever the engine derives
// from them.

// scanOutcome is everything a JSONL scan reports: the records and the error.
type scanOutcome struct {
	recs []Record
	err  string
}

func scanWith(scan func(func(Record) error) error) scanOutcome {
	var out scanOutcome
	if err := scan(func(rec Record) error {
		out.recs = append(out.recs, rec)
		return nil
	}); err != nil {
		out.err = err.Error()
	}
	return out
}

// sameOutcome compares two scans, floats bit for bit.
func sameOutcome(t *testing.T, name string, got, want scanOutcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, encoding/json %q", name, got.err, want.err)
	}
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: %d records, encoding/json %d", name, len(got.recs), len(want.recs))
	}
	for i, g := range got.recs {
		w := want.recs[i]
		if g.User != w.User || !g.Time.Equal(w.Time) ||
			math.Float64bits(g.Point.Lat) != math.Float64bits(w.Point.Lat) ||
			math.Float64bits(g.Point.Lng) != math.Float64bits(w.Point.Lng) {
			t.Fatalf("%s: record %d is %+v, encoding/json %+v", name, i, g, w)
		}
	}
}

func FuzzJSONLDecodeDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want := scanWith(func(fn func(Record) error) error {
			return decodeJSONL(bytes.NewReader(data), 1, fn)
		})
		readers := map[string]func() io.Reader{
			"plain":    func() io.Reader { return bytes.NewReader(data) },
			"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		}
		for name, r := range readers {
			got := scanWith(func(fn func(Record) error) error {
				return ScanRecords(r(), FormatJSONL, fn)
			})
			sameOutcome(t, name, got, want)
		}
	})
}

func FuzzJSONLEncodeDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, user string, ts int64, lat, lng float64) {
		rec := Record{User: user, Time: time.Unix(ts, 0).UTC(), Point: geo.Point{Lat: lat, Lng: lng}}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(jsonRecord{User: user, Unix: rec.Time.Unix(), Lat: lat, Lng: lng})

		var got bytes.Buffer
		rw, err := NewRecordWriter(&got, FormatJSONL)
		if err != nil {
			t.Fatal(err)
		}
		gotErr := rw.Write(rec)
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Write error %v, encoding/json %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Write emitted %q, encoding/json %q", got.Bytes(), want.Bytes())
		}

		// Whatever the fast encoder writes, the fast decoder reads back.
		if _, fast := appendJSONL(nil, jsonRecord{User: user, Unix: ts, Lat: lat, Lng: lng}); fast {
			s := newJSONLScanner(&got)
			_ = s.scan(func(Record) error { return nil }) // only the path taken matters here
			if s.fellBack {
				t.Fatalf("fast-encoded line %q left the fast decoder", want.Bytes())
			}
		}
	})
}
