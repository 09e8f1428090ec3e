// Package lintkit is a dependency-free miniature of golang.org/x/tools'
// go/analysis framework: just enough Analyzer/Pass machinery to express the
// vmalloc invariant suite (detrange, noclock, floateq, syncorder, slogonly)
// without pulling x/tools into the module. The cmd/vmalloc-lint driver speaks
// the `go vet -vettool` unitchecker protocol on top of it, and the atest
// package replays analysistest-style fixtures against it.
//
// The framework deliberately mirrors the upstream API shape (Analyzer.Run
// over a *Pass carrying Fset/Files/Pkg/TypesInfo) so the analyzers port
// mechanically to x/tools if the module ever takes that dependency.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and docs. It must be a
	// valid Go identifier.
	Name string

	// Doc is the one-paragraph rule statement shown by `vmalloc-lint help`.
	Doc string

	// Run applies the analyzer to one package. Diagnostics are emitted via
	// pass.Reportf; the error return is for operational failures only.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one typed package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath is the import path under analysis. It is carried separately
	// from Pkg.Path() so fixture runs can impersonate a determinism-critical
	// package path while compiling under a throwaway name.
	PkgPath string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The invariant suite polices production code; tests legitimately read the
// clock, range over maps, and compare floats for bit-identity.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// DeterminismCritical lists the packages whose control flow must be a pure
// function of the instance. engine, hvp (its placer), core (the min-yield
// evaluator), vp, shard and journal run every journaled epoch: it is
// replayed from the WAL (decisions, not requests), compared bit for bit
// across shards at K=1, and mirrored by followers, so one map-range or clock
// read desynchronizes replay. No replayed path runs lp, milp or presolve;
// they are here because goldens pin their pivots and bits. relax is not: its
// seeded rounding imports math/rand, which noclock refuses.
var DeterminismCritical = []string{
	"vmalloc/internal/engine",
	"vmalloc/internal/hvp",
	"vmalloc/internal/core",
	"vmalloc/internal/vp",
	"vmalloc/internal/shard",
	"vmalloc/internal/journal",
	"vmalloc/internal/lp",
	"vmalloc/internal/milp",
	"vmalloc/internal/presolve",
}

// IsDeterminismCritical reports whether pkgPath is in the replay-critical set.
func IsDeterminismCritical(pkgPath string) bool {
	for _, p := range DeterminismCritical {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// SuppressionPrefix is the magic comment that waives a finding on its line
// (or, for a comment alone on a line, the line below it). The text after the
// prefix is the mandatory justification; RunPackage reports an empty reason
// as a finding in its own right, so suppressions cannot be content-free.
const SuppressionPrefix = "//vmalloc:nondet-ok"

// suppression is one parsed //vmalloc:nondet-ok comment.
type suppression struct {
	file   string
	line   int  // line the comment sits on
	onOwn  bool // comment is the whole line -> covers line+1
	reason string
	pos    token.Pos
}

// collectSuppressions parses every suppression comment in the files. A
// comment sharing its line with code (`x := y //vmalloc:nondet-ok r`) waives
// findings on that line only; a comment alone on its line waives the line
// below it, the conventional "annotation above the statement" shape.
func collectSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		code := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, SuppressionPrefix) {
					continue
				}
				rest := c.Text[len(SuppressionPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //vmalloc:nondet-okay — not ours
				}
				pos := fset.Position(c.Slash)
				out = append(out, suppression{
					file:   pos.Filename,
					line:   pos.Line,
					onOwn:  !code[pos.Line],
					reason: strings.TrimSpace(rest),
					pos:    c.Slash,
				})
			}
		}
	}
	return out
}

// codeLines returns the set of lines in f that contain a non-comment token,
// so a suppression comment can tell "trailing after code" from "alone on its
// line". Comment nodes (including doc comments) are skipped.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// suppressed reports whether a diagnostic at position p is waived, and by
// which suppression.
func suppressed(sups []suppression, p token.Position) (suppression, bool) {
	for _, s := range sups {
		if s.file != p.Filename {
			continue
		}
		if s.line == p.Line || (s.onOwn && s.line+1 == p.Line) {
			return s, true
		}
	}
	return suppression{}, false
}

// RunPackage applies every analyzer to one typed package, filters findings
// through the suppression comments, and appends a finding for every
// suppression that lacks a reason. Diagnostics come back sorted by position.
func RunPackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, pkgPath string) ([]Diagnostic, error) {

	sups := collectSuppressions(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			PkgPath:   pkgPath,
			report: func(d Diagnostic) {
				if _, ok := suppressed(sups, d.Pos); ok {
					return
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, s := range sups {
		if s.reason == "" {
			diags = append(diags, Diagnostic{
				Analyzer: "suppression",
				Pos:      fset.Position(s.pos),
				Message:  "vmalloc:nondet-ok requires a non-empty reason",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// NewInfo returns a types.Info with every map analyzers need populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
