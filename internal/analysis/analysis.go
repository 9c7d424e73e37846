// Package analysis is the repository's project-invariant linter: a
// stdlib-only static-analysis suite (go/parser, go/types, go/importer —
// no external analysis framework) whose analyzers machine-check the
// disciplines this codebase established by hand and has regressed on
// before — deterministic randomness through internal/rng, sorted-order
// floating-point accumulation, no silently dropped errors, deferred
// unlocks on multi-exit functions, no exact float comparison — and,
// since the concurrency pass, the serving stack's lifecycle invariants:
// goroutine termination paths, context plumbing, no blocking sends
// under locks, and WaitGroup ordering (the static half of the split
// documented in DESIGN.md §11; the runtime half is internal/leakcheck).
//
// Each analyzer targets a bug class that actually shipped here (see
// DESIGN.md §10 for the provenance). Intentional violations are
// suppressed at the site with a pragma that requires a written reason:
//
//	//lppm:allow <analyzer>[,<analyzer>...] -- <reason>
//
// A pragma suppresses matching diagnostics on its own line and, when it
// stands alone on a line, on the following line. A pragma with no
// reason, an unknown analyzer name, or no matching diagnostic is itself
// a finding — exceptions stay documented, named, and live.
//
// The suite analyzes shipped sources only: _test.go files are excluded
// at load time, which is also what gives floatcmp its "tests may
// bit-compare" exemption by construction.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one invariant checker. Run inspects a fully type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and pragmas.
	Name string
	// Doc is a one-paragraph description: the invariant and the shipped
	// bug class it guards against.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path; analyzers that scope by layer
	// (detrand's deterministic-package list) key off it.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the suite's analyzers in name order. Every analyzer listed
// here must have a golden-file test under testdata/<name>; `lppm-lint
// -list` enforces that coupling.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		DetRand,
		DroppedErr,
		FloatCmp,
		GoroLeak,
		LockDefer,
		MapOrder,
		SendLock,
		WgDiscipline,
	}
}

// byName resolves analyzer names for pragma validation.
func byName(analyzers []*Analyzer) map[string]*Analyzer {
	m := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = a
	}
	return m
}

// Run executes the analyzers over the packages, applies pragma
// suppression, and returns the surviving diagnostics sorted by position.
// Pragma-grammar violations (missing reason, unknown analyzer, unused
// pragma) are appended as findings of the pseudo-analyzer "pragma" and
// cannot themselves be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, runPackage(pkg, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags
}

// runPackage runs every analyzer over one package and filters the
// findings through the package's pragmas.
func runPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		a.Run(pass)
	}
	pragmas, pragmaDiags := collectPragmas(pkg, byName(analyzers))
	kept := raw[:0]
	for _, d := range raw {
		if !pragmas.suppress(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, pragmaDiags...)
	return append(kept, pragmas.unusedPragmaDiags()...)
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
