// vmalloc-lint is the repo's invariant vettool: five go/analysis-style
// checkers (detrange, noclock, floateq, syncorder, slogonly — see
// docs/analysis.md) compiled into a single binary that speaks cmd/go's
// unitchecker protocol, so it runs as
//
//	go build -o bin/vmalloc-lint ./cmd/vmalloc-lint
//	go vet -vettool=$PWD/bin/vmalloc-lint ./...
//
// The protocol (normally provided by golang.org/x/tools/go/analysis/
// unitchecker) is implemented here directly against the standard library so
// the module stays dependency-free: cmd/go invokes the tool with -V=full to
// fingerprint it for caching, with -flags to discover tool flags, and then
// once per package with a JSON vet.cfg naming the Go files, the import map,
// and the export-data files of every dependency. The tool typechecks the
// package with the gc importer reading that export data, runs the suite, and
// prints findings as file:line:col: message (exit 2) for cmd/go to surface.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"vmalloc/internal/analysis"
	"vmalloc/internal/analysis/lintkit"
)

// vetConfig holds the fields this tool reads from the JSON cmd/go writes for
// each vetted package (x/tools' unitchecker.Config); encoding/json skips the
// rest.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			printVersion()
			return
		case a == "-flags" || a == "--flags":
			// No tool-specific flags: cmd/go validates user flags against
			// this list, so an empty set means `go vet -vettool=...` takes
			// no analyzer options.
			fmt.Println("[]")
			return
		case a == "-h" || a == "-help" || a == "--help" || a == "help":
			usage()
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		usage()
		os.Exit(1)
	}
	if err := run(args[0]); err != nil {
		fmt.Fprintf(os.Stderr, "vmalloc-lint: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "vmalloc-lint: vmalloc invariant suite (run via go vet -vettool)\n\n")
	fmt.Fprintf(os.Stderr, "usage:\n  go build -o bin/vmalloc-lint ./cmd/vmalloc-lint\n  go vet -vettool=$PWD/bin/vmalloc-lint ./...\n\nanalyzers:\n")
	for _, a := range analysis.All {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress a finding with `//vmalloc:nondet-ok <reason>` on the flagged\nline, or alone on the line above it. The reason is mandatory.\n")
}

// printVersion emits the `name version ...` line cmd/go fingerprints the
// tool with; hashing the executable means a rebuilt tool invalidates
// cmd/go's vet cache automatically.
func printVersion() {
	progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

func run(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// cmd/go asks for a facts file ("vetx") for every package, dependencies
	// included, and feeds it to dependents. The suite is strictly
	// intra-package, so the facts are always empty — but the file must
	// exist or cmd/go reports a tool failure.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return err
		}
	}
	// A VetxOnly run means "this package is only a dependency; produce
	// facts, not diagnostics". With no facts to compute there is nothing to
	// do — skipping the typecheck here is what keeps `go vet ./...` from
	// re-typechecking the standard library.
	if cfg.VetxOnly {
		return nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil
			}
			return err
		}
		files = append(files, f)
	}

	info := lintkit.NewInfo()
	tconf := types.Config{
		Importer: newExportDataImporter(fset, &cfg),
		Sizes:    types.SizesFor("gc", goarch()),
	}
	if cfg.GoVersion != "" {
		tconf.GoVersion = cfg.GoVersion
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	diags, err := analysis.RunVet(fset, files, pkg, info, pkgPathOf(cfg.ImportPath))
	if err != nil {
		return err
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
		}
		os.Exit(2)
	}
	return nil
}

// pkgPathOf strips cmd/go's test-variant suffixes so package-scoped rules
// treat "vmalloc/internal/engine [vmalloc/internal/engine.test]" (the
// package recompiled with its test files) like the package itself, and the
// "_test" external test package like a sibling of the package under test.
func pkgPathOf(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	return strings.TrimSuffix(importPath, "_test")
}

func goarch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	return runtime.GOARCH
}

// exportDataImporter resolves imports from the export-data files cmd/go
// listed in the vet config, via the standard library's gc importer. One
// shared delegate serves every import of the run: the gc importer keeps all
// loaded packages in one internal map, which is what preserves type identity
// when two dependencies both pull in, say, os.File.
type exportDataImporter struct {
	delegate types.ImporterFrom
	dir      string
}

func newExportDataImporter(fset *token.FileSet, cfg *vetConfig) exportDataImporter {
	delegate := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[p]; ok {
			p = mapped
		}
		file, ok := cfg.PackageFile[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(file)
	})
	return exportDataImporter{delegate: delegate.(types.ImporterFrom), dir: cfg.Dir}
}

func (ei exportDataImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, ei.dir, 0)
}

func (ei exportDataImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.delegate.ImportFrom(path, dir, mode)
}
