package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/geo"
)

func streamTestDataset(t *testing.T) *Dataset {
	t.Helper()
	t0 := time.Date(2008, 5, 17, 12, 0, 0, 0, time.UTC)
	base := geo.Point{Lat: 37.7749, Lng: -122.4194}
	d := NewDataset()
	for _, u := range []string{"a", "b"} {
		recs := make([]Record, 4)
		for i := range recs {
			recs[i] = Record{User: u, Time: t0.Add(time.Duration(i) * time.Minute), Point: base.Offset(float64(i)*100, 0)}
		}
		tr, err := NewTrace(u, recs)
		if err != nil {
			t.Fatal(err)
		}
		d.Add(tr)
	}
	return d
}

// TestScanRoundTrip checks ScanRecords against both batch writers: every
// record written comes back, in order, for both formats.
func TestScanRoundTrip(t *testing.T) {
	d := streamTestDataset(t)
	for _, format := range []Format{FormatCSV, FormatJSONL} {
		var buf bytes.Buffer
		var err error
		if format == FormatCSV {
			err = WriteCSV(&buf, d)
		} else {
			err = WriteJSONL(&buf, d)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := ScanRecords(&buf, format, func(r Record) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(got) != d.NumRecords() {
			t.Fatalf("%s: scanned %d records, want %d", format, len(got), d.NumRecords())
		}
		i := 0
		for _, tr := range d.Traces() {
			for _, want := range tr.Records {
				if got[i].User != want.User || !got[i].Time.Equal(want.Time) {
					t.Fatalf("%s record %d: got %v, want %v", format, i, got[i], want)
				}
				i++
			}
		}
	}
}

// TestRecordWriterRoundTrip checks the streaming writer against the batch
// readers.
func TestRecordWriterRoundTrip(t *testing.T) {
	d := streamTestDataset(t)
	for _, format := range []Format{FormatCSV, FormatJSONL} {
		var buf bytes.Buffer
		rw, err := NewRecordWriter(&buf, format)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range d.Traces() {
			for _, rec := range tr.Records {
				if err := rw.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		var back *Dataset
		if format == FormatCSV {
			back, err = ReadCSV(&buf)
		} else {
			back, err = ReadJSONL(&buf)
		}
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if back.NumRecords() != d.NumRecords() || back.NumUsers() != d.NumUsers() {
			t.Errorf("%s: round trip %d records / %d users, want %d / %d",
				format, back.NumRecords(), back.NumUsers(), d.NumRecords(), d.NumUsers())
		}
	}
}

// TestRecordWriterEmptyCSVHasHeader checks a record-less CSV stream still
// round-trips: Flush emits the header, matching WriteCSV on an empty
// dataset.
func TestRecordWriterEmptyCSVHasHeader(t *testing.T) {
	var buf bytes.Buffer
	rw, err := NewRecordWriter(&buf, FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("empty stream output does not round-trip: %v", err)
	}
	if d.NumRecords() != 0 {
		t.Errorf("round-tripped %d records, want 0", d.NumRecords())
	}
}

func TestScanErrorsPropagate(t *testing.T) {
	sentinel := errors.New("stop")
	input := "{\"user\":\"a\",\"ts\":0,\"lat\":1,\"lng\":2}\n"
	err := ScanRecords(strings.NewReader(input), FormatJSONL, func(Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("fn error not propagated: %v", err)
	}
	if err := ScanRecords(strings.NewReader("not json\n"), FormatJSONL, nil); err == nil {
		t.Error("malformed jsonl must error")
	}
	if err := ScanRecords(strings.NewReader("wrong,header,row,x\n"), FormatCSV, nil); err == nil {
		t.Error("bad csv header must error")
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Error("unknown format must error")
	}
	if _, err := NewRecordWriter(&bytes.Buffer{}, Format("xml")); err == nil {
		t.Error("unknown writer format must error")
	}
}

// TestScanJSONLIsLive checks that a record reaches fn as soon as its last
// byte has been read, on the fast path and after the fall back to
// encoding/json alike. A scanner that waited for more input while holding a
// complete value would deadlock closed-loop streams, whose clients send the
// next window only once this one comes back. Each Write on the pipe returns
// only when the scanner has read all of it, and the next byte is written
// only after the record arrived.
func TestScanJSONLIsLive(t *testing.T) {
	pr, pw := io.Pipe()
	recs := make(chan Record)
	done := make(chan error, 1)
	go func() {
		done <- ScanRecords(pr, FormatJSONL, func(rec Record) error {
			recs <- rec
			return nil
		})
	}()
	watchdog := time.NewTimer(time.Minute)
	defer watchdog.Stop()
	for _, c := range []struct{ line, user string }{
		{`{"user":"a","ts":1,"lat":1,"lng":2}` + "\n", "a"},
		{`{"user":"b","ts":2,"lat":3,"lng":4}`, "b"},
		{`{"user":"c","lng":6,"ts":3,"lat":5}`, "c"}, // not canonical: encoding/json takes over
		{"\n" + `{"user":"d","ts":4,"lat":7,"lng":8}`, "d"},
	} {
		if _, err := pw.Write([]byte(c.line)); err != nil {
			t.Fatal(err)
		}
		select {
		case rec := <-recs:
			if rec.User != c.user {
				t.Fatalf("got user %q, want %q", rec.User, c.user)
			}
		case <-watchdog.C:
			t.Fatalf("record %q not delivered: the scanner is waiting for input it does not need", c.line)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestScanJSONLReadBoundaries checks that canonical wire stays on the fast
// path wherever the reads split it — a read that ends at `"lat":-` or `1.`
// is the start of a canonical value, not a departure from the form — and
// across refills of the scanner's buffer.
func TestScanJSONLReadBoundaries(t *testing.T) {
	at := func(ts int64) time.Time { return time.Unix(ts, 0).UTC() }
	recs := []Record{
		{User: "u-1", Time: at(1211025600), Point: geo.Point{Lat: 37.7749, Lng: -122.4194}},
		{User: "v w", Time: at(-5), Point: geo.Point{Lat: -5e-8, Lng: 1e-6}},
		{User: "x", Time: at(0), Point: geo.Point{Lat: -90, Lng: 180}},
	}
	for i := 0; len(recs) < 1000; i++ {
		recs = append(recs, Record{User: fmt.Sprintf("user-%d", i%37), Time: at(int64(i) * 7),
			Point: geo.Point{Lat: float64(i%180-90) / 3, Lng: -float64(i%360-180) / 7}})
	}
	var wire bytes.Buffer
	rw, err := NewRecordWriter(&wire, FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := rw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	b := wire.Bytes()
	if len(b) <= jsonlBufSize {
		t.Fatalf("wire is %d bytes; the test needs more than one buffer", len(b))
	}

	check := func(name string, r io.Reader, want []Record) {
		t.Helper()
		s := newJSONLScanner(r)
		var got []Record
		if err := s.scan(func(rec Record) error {
			got = append(got, rec)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.fellBack {
			t.Fatalf("%s: canonical wire fell back to encoding/json", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d is %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	head := bytes.SplitAfter(b, []byte("\n"))
	short := bytes.Join(head[:3], nil)
	for k := 0; k <= len(short); k++ {
		check(fmt.Sprintf("split at %d", k), io.MultiReader(bytes.NewReader(short[:k]), bytes.NewReader(short[k:])), recs[:3])
	}
	check("one byte per read", iotest.OneByteReader(bytes.NewReader(b)), recs)
	check("half reads", iotest.HalfReader(bytes.NewReader(b)), recs)
}

// TestScanJSONLErrorNamesRecord checks that a JSONL error names the value
// by its position in the stream, not a line: blank lines and values that
// share a line do not shift it, on either decoding path.
func TestScanJSONLErrorNamesRecord(t *testing.T) {
	good := `{"user":"a","ts":1,"lat":1,"lng":2}`
	for _, c := range []struct{ in, want string }{
		{good + "\n\n" + `{"user":"","ts":1,"lat":1,"lng":2}` + "\n",
			"trace: jsonl record 2: empty user"},
		{good + "\n\n" + good + `{"user":"b","ts":x}`,
			"trace: jsonl record 3: invalid character 'x' looking for beginning of value"},
	} {
		err := ScanRecords(strings.NewReader(c.in), FormatJSONL, func(Record) error { return nil })
		if err == nil || err.Error() != c.want {
			t.Errorf("error %v, want %q", err, c.want)
		}
	}
}
