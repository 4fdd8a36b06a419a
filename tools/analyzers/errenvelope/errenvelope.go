// Package errenvelope enforces the v1 API's error contract in the
// serving tiers. Every failure leaving internal/server or
// internal/gateway must be the uniform machine-readable envelope
// ({"error":{"code":...,"message":...}}) with a code drawn from the
// stable catalog, the SDK's Code* constants in client/types.go —
// clients branch on those strings, so an ad-hoc http.Error body or a
// typo'd code literal is a silent contract break no test may happen to
// cover. Four checks:
//
//   - direct WriteHeader calls with 4xx/5xx constants are flagged: the
//     envelope helpers (WriteErr, WriteAPIError, Errf) are the only
//     sanctioned way to report failure (the plain-text escape hatches
//     are banned by the forbid analyzer's errenvelope rule);
//   - the code argument of Errf/WriteErr must reference a catalog
//     constant (Code*), never a raw string literal;
//   - a client.APIError composite literal outside Errf is flagged, since
//     it would carry any code past the previous check;
//   - every catalog constant must appear in docs/API.md, so the
//     documented contract and the compiled one cannot drift.
package errenvelope

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the errenvelope check.
var Analyzer = &analysis.Analyzer{
	Name: "errenvelope",
	Doc: "HTTP failures in the serving tiers must use the uniform error envelope " +
		"(WriteErr/WriteAPIError/Errf) with catalog error codes, and every catalog " +
		"code must be documented in docs/API.md",
	Run: run,
}

// tiers are the serving packages whose failures must be envelopes.
var tiers = []string{
	"repro/internal/server",
	"repro/internal/gateway",
}

// catalogPkg declares the Code* catalog and the APIError type.
const catalogPkg = "repro/client"

// codeArg maps envelope helpers to the index of their error-code
// argument.
var codeArg = map[string]int{
	"Errf":     1,
	"WriteErr": 2,
}

func run(pass *analysis.Pass) (interface{}, error) {
	inTiers := analysis.InScope(pass.Pkg.Path(), tiers...)
	if !inTiers && pass.Pkg.Path() != catalogPkg {
		return nil, nil
	}
	files := pass.NonTestFiles()
	checkCatalogDocs(pass, files)
	if !inTiers {
		return nil, nil
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			inErrf := ok && fd.Recv == nil && fd.Name.Name == "Errf"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkWriteHeader(pass, n)
					checkCodeArg(pass, n)
				case *ast.CompositeLit:
					if !inErrf {
						checkLiteral(pass, n)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkLiteral flags a client.APIError composite literal: Errf is the
// one constructor, so every code passes checkCodeArg.
func checkLiteral(pass *analysis.Pass, lit *ast.CompositeLit) {
	n := analysis.NamedOf(pass.TypesInfo.Types[lit].Type)
	if n != nil && n.Obj().Name() == "APIError" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == catalogPkg {
		pass.Reportf(lit.Pos(), "client.APIError literal: build API errors with Errf so the code is checked against the catalog")
	}
}

// checkWriteHeader flags WriteHeader calls with a constant 4xx/5xx
// status: an error status without an envelope body is a bare,
// contract-free failure. (Non-constant statuses flow through WriteJSON
// and the helpers, which are the sanctioned paths.)
func checkWriteHeader(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return
	}
	// Only http.ResponseWriter receivers matter; WriteHeader on other
	// types is unrelated.
	if !isResponseWriter(pass.TypesInfo.Types[sel.X].Type) {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	if code, ok := constant.Int64Val(tv.Value); ok && code >= 400 {
		pass.Reportf(call.Pos(),
			"WriteHeader(%d) reports an error without the envelope body: use WriteErr/WriteAPIError with a catalog code", code)
	}
}

// isResponseWriter reports whether t is (or implements by name)
// net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if n := analysis.NamedOf(t); n != nil {
		obj := n.Obj()
		if obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	// Concrete recorder types that implement the interface: check
	// structurally for the canonical method triple.
	ms := types.NewMethodSet(t)
	has := func(name string) bool {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
		return false
	}
	return has("Header") && has("Write") && has("WriteHeader")
}

// checkCodeArg requires the code argument of the envelope helpers to
// reference a catalog constant.
func checkCodeArg(pass *analysis.Pass, call *ast.CallExpr) {
	var callee types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		callee = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := callee.(*types.Func)
	if !ok {
		return
	}
	idx, ok := codeArg[fn.Name()]
	if !ok || fn.Pkg() == nil || len(call.Args) <= idx {
		return
	}
	// The helper must be ours: package server, or the package under
	// analysis (fixtures declare their own).
	if fn.Pkg().Path() != "repro/internal/server" && fn.Pkg() != pass.Pkg {
		return
	}
	arg := call.Args[idx]
	switch a := arg.(type) {
	case *ast.BasicLit:
		pass.Reportf(arg.Pos(),
			"raw error-code literal %s: reference a catalog constant (Code*) so the stable contract stays greppable and typo-proof", a.Value)
	case *ast.Ident, *ast.SelectorExpr:
		var obj types.Object
		if id, ok := a.(*ast.Ident); ok {
			obj = pass.TypesInfo.Uses[id]
		} else {
			obj = pass.TypesInfo.Uses[a.(*ast.SelectorExpr).Sel]
		}
		if c, ok := obj.(*types.Const); ok && !strings.HasPrefix(c.Name(), "Code") {
			pass.Reportf(arg.Pos(),
				"error code %s is a constant outside the Code* catalog: add it to the catalog (and docs/API.md) or use an existing code", c.Name())
		}
	}
}

// checkCatalogDocs cross-checks the catalog against docs/API.md in the
// package that declares Code* string constants.
func checkCatalogDocs(pass *analysis.Pass, files []*ast.File) {
	type code struct {
		name  string
		value string
		pos   token.Pos
	}
	var catalog []code
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Code") {
						continue
					}
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || c.Val().Kind() != constant.String {
						continue
					}
					catalog = append(catalog, code{name: name.Name, value: constant.StringVal(c.Val()), pos: name.Pos()})
				}
			}
		}
	}
	if len(catalog) == 0 {
		return
	}
	doc, docPath, err := findAPIDoc(pass.Fset.Position(catalog[0].pos).Filename)
	if err != nil {
		pass.Reportf(catalog[0].pos,
			"error-code catalog declared here but docs/API.md was not found above %s: the contract must be documented",
			filepath.Dir(pass.Fset.Position(catalog[0].pos).Filename))
		return
	}
	for _, c := range catalog {
		if !strings.Contains(doc, c.value) {
			pass.Reportf(c.pos,
				"catalog code %q (%s) is not documented in %s: clients branch on it, so it is part of the public contract",
				c.value, c.name, docPath)
		}
	}
}

// findAPIDoc walks upward from the declaring file's directory looking
// for docs/API.md.
func findAPIDoc(fromFile string) (content, path string, err error) {
	dir := filepath.Dir(fromFile)
	for {
		cand := filepath.Join(dir, "docs", "API.md")
		if data, err := os.ReadFile(cand); err == nil {
			return string(data), cand, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", os.ErrNotExist
		}
		dir = parent
	}
}
