// Package syncorder polices the durability boundary. Two rules:
//
//  1. Only internal/journal may call Sync on an *os.File or on the
//     faultfs File seam. Every other layer expresses durability through the
//     journal (Append/Barrier tickets, WriteFileAtomic), so there is exactly one
//     place where "durable" is defined — the place the torn-frame recovery
//     proof covers.
//
//  2. Inside internal/journal, a function that performs the fsync (calls
//     Sync, or the commit helper that wraps it) must not acknowledge
//     waiters — send on a channel — before that call. This is the PR 4
//     no-ack-past-torn-frame rule made structural: an ack delivered before
//     the sync could let a client observe a record that recovery later
//     truncates.
package syncorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"vmalloc/internal/analysis/lintkit"
)

// Analyzer is the syncorder invariant.
var Analyzer = &lintkit.Analyzer{
	Name: "syncorder",
	Doc: "only internal/journal may call (*os.File).Sync or the faultfs " +
		"File seam's Sync, and inside internal/journal no channel send " +
		"(waiter ack) may precede the fsync call in the same function " +
		"(the no-ack-past-torn-frame rule).",
	Run: run,
}

const (
	journalPkg = "vmalloc/internal/journal"
	faultfsPkg = "vmalloc/internal/faultfs"
)

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		if pass.PkgPath != journalPkg {
			checkForeignSync(pass, f)
		}
		if pass.PkgPath == journalPkg {
			checkAckOrder(pass, f)
		}
	}
	return nil
}

// checkForeignSync flags Sync calls on the durable-file types outside the
// journal.
func checkForeignSync(pass *lintkit.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sync" {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || tv.Type == nil {
			return true
		}
		if isDurableFile(tv.Type) {
			pass.Reportf(call.Pos(), "Sync on %s outside %s: durability belongs to the journal (Append/Barrier tickets, journal.WriteFileAtomic) so the torn-frame recovery proof covers every fsync",
				types.TypeString(tv.Type, nil), journalPkg)
		}
		return true
	})
}

// isDurableFile reports whether t is *os.File, os.File, or a type declared
// by the faultfs seam (its File interface or an implementation).
func isDurableFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "os":
		return obj.Name() == "File"
	case faultfsPkg:
		return true
	}
	return false
}

// checkAckOrder enforces send-after-sync inside journal functions that sync.
func checkAckOrder(pass *lintkit.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		firstSync := token.NoPos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := calleeName(call); ok && (name == "Sync" || name == "commit") {
				if !firstSync.IsValid() || call.Pos() < firstSync {
					firstSync = call.Pos()
				}
			}
			return true
		})
		if !firstSync.IsValid() {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if send.Pos() < firstSync {
				pass.Reportf(send.Pos(), "channel send before the fsync call in %s: acks must follow the sync, or an acknowledged record could sit beyond a torn frame",
					fn.Name.Name)
			}
			return true
		})
	}
}

// calleeName extracts the bare method/function name of a call.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	case *ast.Ident:
		return fun.Name, true
	}
	return "", false
}
