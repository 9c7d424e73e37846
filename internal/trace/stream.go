package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Format names a record wire format understood by the streaming scanner and
// writer.
type Format string

// The supported wire formats: the canonical CSV layout (user, unix seconds,
// lat, lng — header required) and one JSON object per line.
const (
	FormatCSV   Format = "csv"
	FormatJSONL Format = "jsonl"
)

// ParseFormat maps a user-supplied name to a Format.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatCSV:
		return FormatCSV, nil
	case FormatJSONL:
		return FormatJSONL, nil
	}
	return "", fmt.Errorf("trace: unknown format %q (want %q or %q)", s, FormatCSV, FormatJSONL)
}

// ScanRecords parses records from r one at a time, invoking fn for each in
// input order without materializing a Dataset — the streaming complement of
// ReadCSV/ReadJSONL for inputs too large (or too live) to batch. An error
// from fn aborts the scan and is returned unchanged.
//
// JSONL accepts exactly what encoding/json decodes into the record's four
// fields. Lines in RecordWriter's canonical form are parsed by a
// fixed-schema byte scanner; from the first value that is not, the rest of
// the stream goes through encoding/json, which therefore sets the error text.
// A JSONL error names the value by its 1-based position in the stream. Each
// record reaches fn once its last byte has been read: the scanner never waits
// for more input while it holds a complete value.
func ScanRecords(r io.Reader, format Format, fn func(Record) error) error {
	switch format {
	case FormatCSV:
		return scanCSV(r, fn)
	case FormatJSONL:
		return newJSONLScanner(r).scan(fn)
	}
	return fmt.Errorf("trace: unknown format %q", format)
}

func scanCSV(r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], want)
		}
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read line %d: %w", line, err)
		}
		rec, err := parseCSVRow(row)
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// RecordWriter emits records one at a time in a wire format — the streaming
// complement of WriteCSV/WriteJSONL. Call Flush when done.
//
// A JSONL line is byte for byte what encoding/json's Encoder writes for the
// record's four fields. Records whose user is printable ASCII other than
// "\<>& and whose coordinates are finite are appended by a fixed-schema
// encoder; the rest go through encoding/json, which escapes the user and
// rejects NaN and ±Inf.
type RecordWriter struct {
	format Format
	bw     *bufio.Writer
	cw     *csv.Writer
	enc    *json.Encoder
	line   []byte // the fixed-schema encoder's line buffer
	wrote  bool
}

// NewRecordWriter wraps w for the given format.
func NewRecordWriter(w io.Writer, format Format) (*RecordWriter, error) {
	rw := &RecordWriter{format: format}
	switch format {
	case FormatCSV:
		rw.cw = csv.NewWriter(w)
	case FormatJSONL:
		rw.bw = bufio.NewWriter(w)
		rw.enc = json.NewEncoder(rw.bw)
	default:
		return nil, fmt.Errorf("trace: unknown format %q", format)
	}
	return rw, nil
}

// Write emits one record (preceded by the header for CSV).
func (rw *RecordWriter) Write(rec Record) error {
	switch rw.format {
	case FormatCSV:
		if !rw.wrote {
			if err := rw.cw.Write(csvHeader); err != nil {
				return fmt.Errorf("trace: write header: %w", err)
			}
		}
		rw.wrote = true
		row := []string{
			rec.User,
			strconv.FormatInt(rec.Time.Unix(), 10),
			strconv.FormatFloat(rec.Point.Lat, 'f', 6, 64),
			strconv.FormatFloat(rec.Point.Lng, 'f', 6, 64),
		}
		if err := rw.cw.Write(row); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
		return nil
	default: // jsonl; constructor rejected anything else
		rw.wrote = true
		jr := jsonRecord{User: rec.User, Unix: rec.Time.Unix(), Lat: rec.Point.Lat, Lng: rec.Point.Lng}
		var err error
		if line, ok := appendJSONL(rw.line[:0], jr); ok {
			rw.line = line
			_, err = rw.bw.Write(line)
		} else {
			err = rw.enc.Encode(jr)
		}
		if err != nil {
			return fmt.Errorf("trace: encode jsonl: %w", err)
		}
		return nil
	}
}

// Flush drains buffered output to the underlying writer. A CSV stream that
// saw no records still gets its header, so the output round-trips through
// ReadCSV as an empty dataset just like WriteCSV's.
func (rw *RecordWriter) Flush() error {
	switch rw.format {
	case FormatCSV:
		if !rw.wrote {
			rw.wrote = true
			if err := rw.cw.Write(csvHeader); err != nil {
				return fmt.Errorf("trace: write header: %w", err)
			}
		}
		rw.cw.Flush()
		if err := rw.cw.Error(); err != nil {
			return fmt.Errorf("trace: flush csv: %w", err)
		}
		return nil
	default:
		if err := rw.bw.Flush(); err != nil {
			return fmt.Errorf("trace: flush jsonl: %w", err)
		}
		return nil
	}
}
