package analysis

import "testing"

// TestRepositoryLintClean locks in the zero-findings state: `go test`
// itself fails the moment a change introduces an unsuppressed violation
// of any suite invariant, with the same diagnostics lppm-lint would
// print. Deliberate exceptions belong at the site as
// `//lppm:allow <analyzer> -- <reason>` pragmas.
func TestRepositoryLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}
