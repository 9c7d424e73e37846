package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path
	Dir   string // directory, relative to the module root
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// stdImporter lazily builds the shared source-mode importer for
// out-of-module (standard library) dependencies. Source mode type-checks
// GOROOT packages from source, so the tool needs no pre-built export
// data; cgo is disabled first so packages like net resolve to their pure
// Go variants instead of requiring a C toolchain. The source importer
// is not safe for concurrent use; the loader calls it from one
// goroutine.
var stdImporter = sync.OnceValue(func() types.ImporterFrom {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
})

// LoadModule parses and type-checks every non-test package under the
// module rooted at (or above) dir, dependencies first. _test.go files
// are excluded: the suite audits shipped code, and test-only idioms
// (bit-exact float comparison, wall-clock timeouts) are legitimate
// there. Calls must not overlap: they share the source importer.
func LoadModule(dir string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	parsed, err := parseModule(fset, root, modPath)
	if err != nil {
		return nil, err
	}
	levels, err := topoLevels(parsed)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{module: modPath, done: make(map[string]*types.Package)}
	var pkgs []*Package
	for _, level := range levels {
		for _, pp := range level {
			info := newInfo()
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(pp.path, fset, pp.files, info)
			if err != nil {
				return nil, fmt.Errorf("type-checking %s: %w", pp.path, err)
			}
			imp.done[pp.path] = tpkg
			pkgs = append(pkgs, &Package{
				Path:  pp.path,
				Dir:   pp.dir,
				Fset:  fset,
				Files: pp.files,
				Pkg:   tpkg,
				Info:  info,
			})
		}
	}
	return pkgs, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// moduleImporter serves already-checked module packages and delegates
// everything else to the shared source importer.
type moduleImporter struct {
	module string
	done   map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	if path == m.module || strings.HasPrefix(path, m.module+"/") {
		return nil, fmt.Errorf("module package %s imported before it was checked (import cycle?)", path)
	}
	return stdImporter().ImportFrom(path, dir, mode)
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root and path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := parseModulePath(data)
			if mp == "" {
				return "", "", fmt.Errorf("no module path in %s", filepath.Join(d, "go.mod"))
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// parsedPkg is a package after parsing, before type-checking.
type parsedPkg struct {
	path    string
	dir     string // relative to module root
	files   []*ast.File
	imports map[string]bool // module-internal imports only
}

// parseModule walks the module tree and parses every non-test package.
// testdata, vendor, and hidden directories are skipped, matching the go
// tool's own convention.
func parseModule(fset *token.FileSet, root, modPath string) (map[string]*parsedPkg, error) {
	pkgs := make(map[string]*parsedPkg)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pp := pkgs[importPath]
		if pp == nil {
			pp = &parsedPkg{path: importPath, dir: rel, imports: make(map[string]bool)}
			pkgs[importPath] = pp
		}
		pp.files = append(pp.files, f)
		for _, spec := range f.Imports {
			ip, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				pp.imports[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic file order within each package (WalkDir is sorted,
	// but make the invariant explicit rather than inherited).
	for _, pp := range pkgs {
		sort.Slice(pp.files, func(i, j int) bool {
			return fset.File(pp.files[i].Pos()).Name() < fset.File(pp.files[j].Pos()).Name()
		})
	}
	return pkgs, nil
}

// topoLevels stratifies packages by import depth: level 0 holds
// packages with no module-internal imports, level n+1 holds packages
// whose deepest module dependency sits at level n, so checking the
// levels in order checks every package after its dependencies. Packages
// are path-sorted within each level for a deterministic overall order.
func topoLevels(pkgs map[string]*parsedPkg) ([][]*parsedPkg, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	depth := make(map[string]int)
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p string) (int, error)
	visit = func(p string) (int, error) {
		switch state[p] {
		case 1:
			return 0, fmt.Errorf("import cycle through %s", p)
		case 2:
			return depth[p], nil
		}
		state[p] = 1
		pp := pkgs[p]
		deps := make([]string, 0, len(pp.imports))
		for d := range pp.imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		level := 0
		for _, d := range deps {
			if pkgs[d] == nil {
				return 0, fmt.Errorf("%s imports %s, which has no Go files in this module", p, d)
			}
			dl, err := visit(d)
			if err != nil {
				return 0, err
			}
			if dl+1 > level {
				level = dl + 1
			}
		}
		state[p] = 2
		depth[p] = level
		return level, nil
	}
	maxLevel := -1
	for _, p := range paths {
		l, err := visit(p)
		if err != nil {
			return nil, err
		}
		if l > maxLevel {
			maxLevel = l
		}
	}
	levels := make([][]*parsedPkg, maxLevel+1)
	for _, p := range paths {
		levels[depth[p]] = append(levels[depth[p]], pkgs[p])
	}
	return levels, nil
}
