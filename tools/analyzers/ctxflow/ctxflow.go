// Package ctxflow keeps the cancellation chain of the serving stack
// unbroken. PR 4 threaded context cancellation from the HTTP client
// through the gateway fan-out, the provenance walk core, and the
// SDK: a client disconnect or ?timeout= deadline aborts the traversal
// everywhere. That chain has two statically-detectable failure modes:
// minting a fresh root context mid-chain, which the forbid analyzer's
// ctxflow rule bans, and accepting a ctx parameter and never using it,
// which silently drops the chain on the floor while the signature
// still promises cancellation. This analyzer flags the second.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "forbid dropped ctx parameters in the serving stack " +
		"(server handlers, gateway fan-out, the provenance walk, SDK calls), where the " +
		"client-disconnect cancellation chain must stay unbroken",
	Run: run,
}

// scope covers every tier the cancellation chain crosses.
var scope = []string{
	"repro/internal/server",
	"repro/internal/gateway",
	"repro/internal/provgraph",
	"repro/internal/provquery",
	"repro/client",
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	files := pass.NonTestFiles()

	// used collects every object the package references, so dropped
	// parameters are those whose object never appears.
	used := map[types.Object]bool{}
	for _, obj := range pass.TypesInfo.Uses {
		used[obj] = true
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkParams(pass, n.Type, used)
				}
			case *ast.FuncLit:
				checkParams(pass, n.Type, used)
			}
			return true
		})
	}
	return nil, nil
}

// checkParams flags named context.Context parameters the function body
// never reads.
func checkParams(pass *analysis.Pass, ft *ast.FuncType, used map[types.Object]bool) {
	if ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil || !isContext(obj.Type()) {
				continue
			}
			if !used[obj] {
				pass.Reportf(name.Pos(),
					"context parameter %s is dropped: the cancellation chain ends here while the signature promises it continues", name.Name)
			}
		}
	}
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
