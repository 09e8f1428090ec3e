package analysis_test

import (
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEpochPathSkipsLPTier fences the LP tier off the epoch path: neither the
// online engine nor the shard router may import relax, lp, presolve or milp,
// directly or through any other package of the module. The import graph is
// read with go/parser from every non-test file, build tags ignored, so the
// fence is if anything stricter than the compiler's.
func TestEpochPathSkipsLPTier(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from internal/analysis
	forbidden := []string{
		"vmalloc/internal/relax",
		"vmalloc/internal/lp",
		"vmalloc/internal/presolve",
		"vmalloc/internal/milp",
	}
	if importChain(t, root, "vmalloc/internal/exp", forbidden) == nil {
		t.Fatal("the walker found no LP-tier import from internal/exp, which solves relaxations")
	}
	for _, start := range []string{"vmalloc/internal/engine", "vmalloc/internal/shard"} {
		if chain := importChain(t, root, start, forbidden); chain != nil {
			t.Errorf("%s reaches the LP tier: %s", start, strings.Join(chain, " -> "))
		}
	}
}

// TestTestutilStaysInTests fences the test-only packages: no non-test file
// outside internal/testutil/ — in the module or in bench/ — may import an
// internal/testutil/... package, so production binaries never link them.
func TestTestutilStaysInTests(t *testing.T) {
	root := filepath.Join("..", "..")
	const testutil = "vmalloc/internal/testutil/"
	checked := 0
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkg := path.Join("vmalloc", filepath.ToSlash(rel))
		if strings.HasPrefix(pkg+"/", testutil) {
			return filepath.SkipDir
		}
		checked++
		for _, imp := range moduleImports(t, root, pkg) {
			if strings.HasPrefix(imp, testutil) {
				t.Errorf("%s imports the test-only package %s", pkg, imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 30 {
		t.Fatalf("walked only %d directories; the module root is not where the test expects it", checked)
	}
}

// importChain searches the module-internal imports breadth-first from start
// and returns the first import path from start to a forbidden package, or
// nil when none is reachable.
func importChain(t *testing.T, root, start string, forbidden []string) []string {
	from := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if slices.Contains(forbidden, pkg) {
			var chain []string
			for p := pkg; p != ""; p = from[p] {
				chain = append(chain, p)
			}
			slices.Reverse(chain)
			return chain
		}
		for _, imp := range moduleImports(t, root, pkg) {
			if _, seen := from[imp]; !seen {
				from[imp] = pkg
				queue = append(queue, imp)
			}
		}
	}
	return nil
}

// moduleImports lists the vmalloc/... imports of pkg's non-test files, sorted.
func moduleImports(t *testing.T, root, pkg string) []string {
	dir := root
	if rel, ok := strings.CutPrefix(pkg, "vmalloc/"); ok {
		dir = filepath.Join(root, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("package %s: %v", pkg, err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "vmalloc/") && !slices.Contains(out, path) {
				out = append(out, path)
			}
		}
	}
	slices.Sort(out)
	return out
}
