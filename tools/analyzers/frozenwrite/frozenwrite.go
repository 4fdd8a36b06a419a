// Package frozenwrite enforces the copy-on-publish discipline
// statically. A published server.Snapshot, a provenance.View, and the
// other frozen view types are shared across goroutines with no locks —
// correctness rests on nothing ever mutating them after the freeze
// point. That discipline was convention only; this analyzer makes it
// checkable:
//
//   - a write through a value of a frozen type (field assignment, map
//     store, delete, copy into a field/element) is flagged…
//   - …unless the value is provably pre-publish: a local variable the
//     same function built from a composite literal (`snap :=
//     &Snapshot{…}; snap.Tables[a] = …` is the sanctioned builder
//     pattern — the value is not yet visible to anyone else).
//
// Frozen types are the registry below plus any same-package type whose
// doc comment carries a `nettrails:frozen` marker, so new frozen view
// types opt in with one doc line. A second registry names read-only
// fields: frozen views point into them, so every store to one is
// flagged, builder or not; a composite literal is not a store.
package frozenwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the frozenwrite check.
var Analyzer = &analysis.Analyzer{
	Name: "frozenwrite",
	Doc: "forbid mutation of published snapshot/view values (copy-on-publish discipline): " +
		"writes through frozen types are only legal on locals freshly built from composite " +
		"literals, i.e. before publish",
	Run: run,
}

var scope = []string{
	"repro/internal/eval",
	"repro/internal/engine",
	"repro/internal/server",
	"repro/internal/gateway",
	"repro/internal/provenance",
	"repro/internal/provquery",
	"repro/internal/provgraph",
	"repro/internal/rel",
	"repro/internal/provstore",
}

// frozen is the cross-package registry of published-immutable types.
// Same-package types can opt in instead with a `nettrails:frozen` doc
// marker (which these carry too, as documentation).
var frozen = map[string]bool{
	"repro/internal/server.Snapshot": true,
	"repro/internal/server.ring":     true,
	"repro/internal/server.NodeInfo": true,
	"repro/internal/provenance.View": true,
	// The persistent sorted-table view: chunks are shared with the live
	// table and with other Frozen versions, so any write through a
	// Frozen corrupts every version sharing the chunk.
	"repro/internal/rel.Frozen": true,
	// The snapshot store's read path: a sealed segment's mmapped bytes
	// and its succinct trie index are shared by every concurrent reader
	// with no locks — immutable from seal to close.
	"repro/internal/provstore.Trie":          true,
	"repro/internal/provstore.sealedSegment": true,
}

// readOnly is the registry of fields no code may store to once their
// value exists, written "import/path.Type.Field".
var readOnly = map[string]bool{
	// A table chunk points at its row's tuple (&Row.Tuple), so every
	// frozen version holding the chunk reads through the field.
	"repro/internal/rel.Row.Tuple": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	files := pass.NonTestFiles()
	marked := markedTypes(pass, files)
	isFrozen := func(t types.Type) (string, bool) {
		n := analysis.NamedOf(t)
		if n == nil {
			return "", false
		}
		obj := n.Obj()
		if obj.Pkg() == nil {
			return "", false
		}
		full := obj.Pkg().Path() + "." + obj.Name()
		if frozen[full] || marked[obj] {
			return obj.Name(), true
		}
		return "", false
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkFunc(pass, body, isFrozen)
			}
			return true
		})
	}
	return nil, nil
}

// markedTypes collects same-package types whose declaration docs carry
// the nettrails:frozen marker.
func markedTypes(pass *analysis.Pass, files []*ast.File) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc.Text()
				if doc == "" {
					doc = gd.Doc.Text()
				}
				if strings.Contains(doc, "nettrails:frozen") {
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}

// checkFunc scans one function body for post-freeze writes.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, isFrozen func(types.Type) (string, bool)) {
	fresh := freshLocals(pass, body, isFrozen)

	check := func(pos token.Pos, target ast.Expr) {
		if field, ok := readOnlyTarget(pass, target); ok {
			pass.Reportf(pos,
				"write to %s stores to read-only field %s: frozen versions point into it — build a new value instead",
				types.ExprString(target), field)
			return
		}
		if name, root, ok := frozenTarget(pass, target, isFrozen); ok && !fresh[root] {
			pass.Reportf(pos,
				"write to %s mutates frozen %s after the freeze point: snapshots are copy-on-publish — build a fresh value and swap it in (or //lint:allow frozenwrite <why> if provably pre-publish)",
				types.ExprString(target), name)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			// Function literals get their own checkFunc pass (with
			// their own fresh-local tracking) from run's walk.
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(n.Pos(), lhs)
			}
		case *ast.IncDecStmt:
			check(n.Pos(), n.X)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin &&
					(id.Name == "delete" || id.Name == "copy" || id.Name == "clear") {
					check(n.Pos(), n.Args[0])
				}
			}
		}
		return true
	})
}

// readOnlyTarget reports whether writing through expr stores into a
// registered read-only field: some selector of its selector/index
// chain picks that field. It returns the field's registry name.
func readOnlyTarget(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	for e := expr; ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if key := fieldKey(pass.TypesInfo.Selections[x]); readOnly[key] {
				return key, true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// fieldKey names a field selection "import/path.Type.Field" after the
// struct type that declares the field (so a field promoted through an
// embedding keeps its own name); "" for anything but a field of a
// named struct.
func fieldKey(sel *types.Selection) string {
	if sel == nil || sel.Kind() != types.FieldVal {
		return ""
	}
	var owner *types.Named
	t := sel.Recv()
	for _, i := range sel.Index() {
		if owner = analysis.NamedOf(t); owner == nil {
			return ""
		}
		st, ok := owner.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	if owner == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + sel.Obj().Name()
}

// frozenTarget reports whether writing through expr mutates shared
// state reachable from a frozen type: some prefix of the
// selector/index chain has a frozen type, AND the chain reaches that
// state through a reference (pointer, map, or slice). A chain of plain
// value selectors rooted at a value-typed local (`ni := snap.Info[a];
// ni.Tuples = 7`) only writes the function's own copy and stays legal.
// It returns the frozen type's name and the chain's root object (nil
// when the root is not a simple identifier).
func frozenTarget(pass *analysis.Pass, expr ast.Expr, isFrozen func(types.Type) (string, bool)) (string, types.Object, bool) {
	var root types.Object
	var frozenName string
	found := false
	sawRef := false
	for e := expr; ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if name, ok := typeFrozen(pass, x.X, isFrozen); ok {
				frozenName, found = name, true
			}
			if isRefType(pass, x.X) {
				sawRef = true
			}
			e = x.X
			continue
		case *ast.IndexExpr:
			if name, ok := typeFrozen(pass, x.X, isFrozen); ok {
				frozenName, found = name, true
			}
			// Indexing a map or slice dereferences shared backing
			// storage (an array index on a value array does not).
			if tv, ok := pass.TypesInfo.Types[x.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map, *types.Slice, *types.Pointer:
					sawRef = true
				}
			}
			e = x.X
			continue
		case *ast.StarExpr:
			if name, ok := typeFrozen(pass, x, isFrozen); ok {
				frozenName, found = name, true
			}
			sawRef = true
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.Ident:
			root = pass.TypesInfo.Uses[x]
			if root == nil {
				root = pass.TypesInfo.Defs[x]
			}
		}
		break
	}
	return frozenName, root, found && sawRef
}

// isRefType reports whether e's type is a pointer (selecting through
// it auto-dereferences into shared memory).
func isRefType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isPtr := tv.Type.Underlying().(*types.Pointer)
	return isPtr
}

// typeFrozen resolves an expression's type against the frozen set.
func typeFrozen(pass *analysis.Pass, e ast.Expr, isFrozen func(types.Type) (string, bool)) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	return isFrozen(tv.Type)
}

// freshLocals collects local variables assigned from composite
// literals of frozen types anywhere in the body: the builder pattern.
// Writes through them are pre-publish by construction. (The builder
// publishes by handing the value off — after which the static name is
// normally never written again; if it is, that is exactly the bug this
// analyzer exists to catch, reported when the value escapes first.)
func freshLocals(pass *analysis.Pass, body *ast.BlockStmt, isFrozen func(types.Type) (string, bool)) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isCompositeOfFrozen(pass, rhs, isFrozen) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// isCompositeOfFrozen matches `T{…}` and `&T{…}` for frozen T.
func isCompositeOfFrozen(pass *analysis.Pass, e ast.Expr, isFrozen func(types.Type) (string, bool)) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	_, frozen := typeFrozen(pass, cl, isFrozen)
	return frozen
}
