package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// The fixture module under testdata/badmod carries exactly one
// violation (an exact float64 comparison), pinning both output formats and the
// exit contract without touching the real tree.

func TestPlainOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-C", "testdata/badmod"}, &out)
	var n errFindings
	if !errors.As(err, &n) || int(n) != 1 {
		t.Fatalf("run returned %v, want errFindings(1)", err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "x.go:6:14: floatcmp: ") {
		t.Fatalf("plain output = %q, want x.go:6:14: floatcmp: prefix", got)
	}
}

func TestJSONOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-C", "testdata/badmod", "-json"}, &out)
	var n errFindings
	if !errors.As(err, &n) || int(n) != 1 {
		t.Fatalf("run returned %v, want errFindings(1)", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d JSON lines, want 1: %q", len(lines), out.String())
	}
	var f jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("line is not JSON: %v: %q", err, lines[0])
	}
	want := jsonFinding{Analyzer: "floatcmp", File: "x.go", Line: 6, Col: 14, Suppressible: true}
	if f.Analyzer != want.Analyzer || f.File != want.File || f.Line != want.Line || f.Col != want.Col || f.Suppressible != want.Suppressible {
		t.Fatalf("finding = %+v, want %+v (message aside)", f, want)
	}
	if f.Message == "" {
		t.Fatal("finding has an empty message")
	}
}

func TestListSelfCheckPasses(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("-list: %v\n%s", err, out.String())
	}
	for _, name := range []string{"goroleak", "ctxflow", "sendlock", "wgdiscipline", "floatcmp"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}
