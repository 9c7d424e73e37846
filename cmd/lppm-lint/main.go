// Command lppm-lint runs the repository's project-invariant analyzer
// suite (see internal/analysis): determinism, error, lock,
// float-comparison and concurrency discipline, machine-checked instead
// of asserted in review. Exit status 1 means unsuppressed findings;
// every deliberate exception in the tree is a
// `//lppm:allow <analyzer> -- <reason>` pragma at the site.
//
// Usage:
//
//	lppm-lint [-C dir] [-json] [-list]
//
// Without flags it lints the module containing dir (default ".") and
// prints findings as file:line:col: analyzer: message. -json emits one
// JSON object per finding per line instead of the plain format — the
// contract CI tooling consumes. With -list it prints the analyzer roster
// and self-checks that each analyzer has a golden-file test under
// internal/analysis/testdata/<name> containing at least one `// want`
// expectation — an analyzer nobody tests is an invariant nobody checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	// Output accumulates in memory and is printed in one shot: the
	// report is small, and an in-memory writer keeps the tool clean
	// under its own droppederr analyzer without pragmas.
	var out strings.Builder
	err := run(os.Args[1:], &out)
	fmt.Print(out.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lppm-lint:", err)
		os.Exit(1)
	}
}

// errFindings signals a clean run of the tool over a dirty tree.
type errFindings int

func (n errFindings) Error() string {
	return fmt.Sprintf("%d finding(s)", int(n))
}

func run(args []string, out *strings.Builder) error {
	fs := flag.NewFlagSet("lppm-lint", flag.ContinueOnError)
	dir := fs.String("C", ".", "lint the module containing this directory")
	jsonOut := fs.Bool("json", false, "emit findings as JSON objects, one per line")
	list := fs.Bool("list", false, "list analyzers and self-check golden-test coverage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q; the whole module is always linted", fs.Args())
	}
	if *list {
		return selfCheck(*dir, out)
	}
	return lint(*dir, *jsonOut, out)
}

// jsonFinding is the -json wire format: one object per line, stable
// field set. Suppressible is false only for the "pragma" pseudo-analyzer
// findings, which no pragma can silence — CI can use it to distinguish
// "add a justified pragma or fix the code" from "fix the pragma itself".
type jsonFinding struct {
	Analyzer     string `json:"analyzer"`
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Message      string `json:"message"`
	Suppressible bool   `json:"suppressible"`
}

func lint(dir string, jsonOut bool, out *strings.Builder) error {
	pkgs, err := analysis.LoadModule(dir)
	if err != nil {
		return err
	}
	diags := analysis.Run(pkgs, analysis.All())
	if len(diags) == 0 {
		return nil
	}
	// Report positions relative to the module root: stable across
	// checkouts, clickable from the repository root.
	root, rerr := moduleRoot(dir)
	for _, d := range diags {
		name := d.Pos.Filename
		if rerr == nil {
			if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		if jsonOut {
			b, err := json.Marshal(jsonFinding{
				Analyzer:     d.Analyzer,
				File:         name,
				Line:         d.Pos.Line,
				Col:          d.Pos.Column,
				Message:      d.Message,
				Suppressible: d.Analyzer != "pragma",
			})
			if err != nil {
				return err
			}
			out.WriteString(string(b))
			out.WriteString("\n")
			continue
		}
		fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return errFindings(len(diags))
}

// selfCheck lists the roster and fails if any analyzer lacks a golden
// test with at least one expectation.
func selfCheck(dir string, out *strings.Builder) error {
	root, err := moduleRoot(dir)
	if err != nil {
		return err
	}
	missing := 0
	for _, a := range analysis.All() {
		status := "golden-tested"
		if err := hasGoldenTest(filepath.Join(root, "internal", "analysis", "testdata", a.Name)); err != nil {
			status = "MISSING GOLDEN TEST: " + err.Error()
			missing++
		}
		fmt.Fprintf(out, "%-12s %s\n             %s\n", a.Name, a.Doc, status)
	}
	if missing > 0 {
		return fmt.Errorf("%d analyzer(s) without golden tests", missing)
	}
	return nil
}

// hasGoldenTest verifies dir holds at least one .go file with a
// `// want` expectation comment.
func hasGoldenTest(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("no testdata directory %s", dir)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if strings.Contains(string(data), `want "`) {
			return nil
		}
	}
	return fmt.Errorf("no .go file with a `// want` expectation in %s", dir)
}

// moduleRoot finds the enclosing module root directory.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}
