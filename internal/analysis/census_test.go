package analysis_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// censusAllowlist names the exported symbols the census accepts without a
// non-test caller, each with the reason it stays. An entry is allowed only
// when moving the symbol out would force an import cycle, because tests
// inside its own package call it. Keys are "importpath.Name" or
// "importpath.Type.Method".
var censusAllowlist = map[string]string{
	"vmalloc/internal/lp.Check":                "the LP certificate: lp's in-package tests (lp_test.go, check_test.go, dual_test.go) certify every answer with it; milp, presolve, relax and root tests too. It stays until relax certifies LPBOUND with it",
	"vmalloc/internal/lp.NewCSCFromDense":      "builds dense test models in CSC form: lp's in-package tests (lp_test.go, revised_test.go, sparse_test.go, dual_test.go, duality_test.go) call it; milp and presolve tests too",
	"vmalloc/internal/vp.MetaConfigsNaive":     "reference meta search: vp's in-package solver_test.go pins MetaConfigs to it bit for bit; root bench_test.go times it",
	"vmalloc/internal/vp.PackPermutationNaive": "reference Permutation-Pack: vp's in-package naive_test.go cross-checks the key-mapping packer against it; root bench_test.go times it",
	"vmalloc/internal/greedy.Solve":            "single-strategy reference: greedy's in-package greedy_test.go and opt's tests call it",
}

// TestProductionExportsHaveCallers is the production census: every exported
// function, method, type, var and const that a non-test file under
// internal/ or cmd/ declares must be referenced by some non-test file of the
// module or of bench/. Code only tests use belongs in the tests, or in a
// test-only package under internal/testutil/.
func TestProductionExportsHaveCallers(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from internal/analysis
	unused, err := census([]moduleRoot{
		{dir: root, path: "vmalloc"},
		{dir: filepath.Join(root, "bench"), path: "vmalloc/bench"}, // a caller until it moves to context-first calls
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range unused {
		if _, ok := censusAllowlist[sym]; !ok {
			t.Errorf("%s has no non-test caller: delete it, or move it into the tests that use it", sym)
		}
	}
	for sym, reason := range censusAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s gives no reason", sym)
		}
		if !slices.Contains(unused, sym) {
			t.Errorf("allowlist entry %s is stale: the symbol has a non-test caller or no longer exists", sym)
		}
	}
}

// TestCensusFlagsFixture runs the census over a fixture module whose one
// unused export is internal/lib.Unused; every other way of being referenced
// (a call, an interface implementation, a String method, a library alias in
// the root package) must keep a symbol off the list.
func TestCensusFlagsFixture(t *testing.T) {
	unused, err := census([]moduleRoot{{dir: filepath.Join("testdata", "census"), path: "fixture"}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture/internal/lib.Unused"}; !slices.Equal(unused, want) {
		t.Fatalf("census = %v, want %v", unused, want)
	}
}

// moduleRoot is a directory tree whose packages have import paths under path.
type moduleRoot struct{ dir, path string }

// censusPkg is one package of non-test files, parsed and later type-checked.
type censusPkg struct {
	path, rel string // import path; directory relative to its module root
	files     []*ast.File
	types     *types.Package
	uses      map[*ast.Ident]types.Object
}

// censusImporter type-checks module packages from source on demand and reads
// the standard library from its export data.
type censusImporter struct {
	fset *token.FileSet
	pkgs map[string]*censusPkg
	std  types.Importer
}

func (imp *censusImporter) Import(path string) (*types.Package, error) {
	p, ok := imp.pkgs[path]
	if !ok {
		return imp.std.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: imp}
		p.uses = map[*ast.Ident]types.Object{}
		tp, err := conf.Check(path, imp.fset, p.files, &types.Info{Uses: p.uses})
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		p.types = tp
	}
	return p.types, nil
}

// census type-checks every non-test file under the roots and returns, sorted,
// the exported symbols declared under internal/ or cmd/ that nothing
// references. Test-only packages (internal/testutil/..., the analyzer test
// harness) are neither audited nor counted as callers.
func census(roots []moduleRoot) ([]string, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*censusPkg{}
	for _, r := range roots {
		if err := loadTree(fset, r, pkgs); err != nil {
			return nil, err
		}
	}
	std, err := stdExports(pkgs)
	if err != nil {
		return nil, err
	}
	imp := &censusImporter{fset: fset, pkgs: pkgs}
	imp.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := std[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}

	testOnly := func(p *censusPkg) bool {
		return strings.HasPrefix(p.rel, "internal/testutil/") || p.rel == "internal/analysis/atest"
	}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{} // the non-generic interfaces callers name
	for _, p := range pkgs {
		if testOnly(p) {
			continue
		}
		for _, obj := range p.uses {
			used[origin(obj)] = true
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams() == nil {
						ifaces[it] = true
					}
				}
			}
		}
	}
	aliased := map[*types.TypeName]bool{} // named types the root package re-exports
	for _, r := range roots {
		if p := pkgs[r.path]; p != nil {
			for _, name := range p.types.Scope().Names() {
				if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						aliased[n.Obj()] = true
					}
				}
			}
		}
	}

	var unused []string
	for _, path := range paths {
		p := pkgs[path]
		if testOnly(p) || !(strings.HasPrefix(p.rel, "internal/") || strings.HasPrefix(p.rel, "cmd/")) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused = append(unused, path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || aliased[tn] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !used[m] && !implicitlyCalled(m, named, ifaces) {
					unused = append(unused, path+"."+name+"."+m.Name())
				}
			}
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// implicitlyCalled reports whether m can be reached without naming it: by a
// reflective or formatting call (String, Error, the JSON codec), or through
// an interface some non-test file uses that recv or *recv implements.
func implicitlyCalled(m *types.Func, recv *types.Named, ifaces map[*types.Interface]bool) bool {
	switch m.Name() {
	case "String", "Error", "MarshalJSON", "UnmarshalJSON":
		return true
	}
	for it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// stdExports maps each standard-library package the parsed files import,
// with its dependencies, to its export-data file in the build cache.
func stdExports(pkgs map[string]*censusPkg) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}"}
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value) // the parser accepted the literal
				if _, mod := pkgs[path]; !mod && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	if len(seen) == 0 {
		return nil, nil
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

// loadTree parses the non-test files of every package under r, honouring
// build constraints and skipping testdata, hidden directories and nested
// modules.
func loadTree(fset *token.FileSet, r moduleRoot, pkgs map[string]*censusPkg) error {
	return filepath.WalkDir(r.dir, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != r.dir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(r.dir, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		p := &censusPkg{path: r.path, rel: rel}
		if rel != "." {
			p.path += "/" + rel
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		pkgs[p.path] = p
		return nil
	})
}
