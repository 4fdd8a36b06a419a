// Package mapdeterminism flags map iteration whose order can leak into
// externally-visible bytes. Go randomizes map iteration order on
// purpose; inside the deterministic core
// (internal/{engine,eval,rel,provenance,provgraph,simnet,server,gateway})
// every wire message, digest, JSON body, and version sequence must be a
// pure function of the snapshot — an unsorted `range` over a map that
// appends to a slice, writes to a stream/hash, or sends on a channel is
// the single most likely way to break the byte-parity guarantees
// (epoch drain == serial loop, sharded == single-process).
//
// Order-insensitive uses stay legal: building another map (JSON
// encoding sorts map keys), counting, or the canonical
// collect-then-sort idiom —
//
//	keys := make([]string, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// is recognized when the appended-to slice is passed to a sort/slices
// call after the loop in the same statement sequence.
package mapdeterminism

import (
	"go/ast"
	"go/types"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the mapdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "mapdeterminism",
	Doc: "forbid map-iteration order from reaching ordered sinks (slice appends without a " +
		"subsequent sort, stream/hash writes, channel sends) in the deterministic core, " +
		"where every output must be byte-identical across runs",
	Run: run,
}

var scope = []string{
	"repro/internal/engine",
	"repro/internal/eval",
	"repro/internal/rel",
	"repro/internal/wire",
	"repro/internal/provenance",
	"repro/internal/provgraph",
	"repro/internal/simnet",
	"repro/internal/server",
	"repro/internal/gateway",
}

// writeMethods are stream-sink method names: writing inside a map
// range emits bytes in iteration order, which no later sort can fix.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Fprint": true, "Fprintf": true, "Fprintln": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !analysis.InScope(pass.Pkg.Path(), scope...) {
		return nil, nil
	}
	for _, f := range pass.NonTestFiles() {
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
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil, nil
}

// checkFunc examines every map range statement in one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Function literals are separate functions; the top-level walk
		// in run visits them on their own.
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if isMapRange(pass, rng) {
			checkMapRange(pass, body, rng)
		}
		return true
	})
}

// checkMapRange inspects one `range <map>` body for ordered sinks.
func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	mapText := types.ExprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"send inside range over map %s delivers values in random iteration order; iterate sorted keys instead", mapText)
		case *ast.CallExpr:
			checkStreamWrite(pass, n, mapText)
		case *ast.AssignStmt:
			checkAppend(pass, funcBody, rng, n, mapText)
		case *ast.RangeStmt:
			// A nested map range is flagged on its own (by checkFunc);
			// skip its body here so each sink is attributed to the
			// innermost map whose order it captures. Nested slice
			// ranges are still scanned: their sinks inherit this map's
			// order.
			if n != rng && isMapRange(pass, n) {
				return false
			}
		}
		return true
	})
}

// isMapRange reports whether rng iterates a map.
func isMapRange(pass *analysis.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkStreamWrite flags byte-emitting calls inside the loop body.
func checkStreamWrite(pass *analysis.Pass, call *ast.CallExpr, mapText string) {
	// Package-level printers: fmt.Fprint*, io.WriteString.
	if pkgPath, name, ok := pass.PkgFunc(call.Fun); ok {
		if (pkgPath == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln")) ||
			(pkgPath == "io" && name == "WriteString") {
			pass.Reportf(call.Pos(),
				"%s.%s inside range over map %s emits bytes in random iteration order; sort the keys first", pkgPath, name, mapText)
		}
		return
	}
	// Writer/hash/builder methods.
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !writeMethods[sel.Sel.Name] {
		return
	}
	// Only methods (not conversions or field calls) with a receiver
	// that looks like a byte sink: io.Writer-implementing or hash.
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	if !hasMethod(tv.Type, "Write") && !hasMethod(tv.Type, "WriteString") {
		return
	}
	pass.Reportf(call.Pos(),
		"%s.%s inside range over map %s emits bytes in random iteration order; sort the keys first",
		types.ExprString(sel.X), sel.Sel.Name, mapText)
}

func hasMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		return hasPtrMethod(t, name)
	}
	return false
}

func hasPtrMethod(t types.Type, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// checkAppend flags `dst = append(dst, ...)` inside the loop when dst
// outlives the loop and is not sorted afterwards.
func checkAppend(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt, mapText string) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 || i >= len(as.Lhs) {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		dst := as.Lhs[i]
		dstText := types.ExprString(dst)
		// Appending to a loop-local accumulator orders only data from a
		// single iteration — harmless.
		if declaredWithin(pass, dst, rng) {
			continue
		}
		if sortedAfter(pass, funcBody, rng, dstText) {
			continue
		}
		pass.Reportf(as.Pos(),
			"append to %s inside range over map %s captures random iteration order and %s is never sorted afterwards; sort the keys (or the result) before it reaches wire/digest/JSON output",
			dstText, mapText, dstText)
	}
}

// declaredWithin reports whether the root identifier of expr is
// declared inside the range statement.
func declaredWithin(pass *analysis.Pass, expr ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			return obj != nil && analysis.Within(obj.Pos(), rng)
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// sortedAfter reports whether, somewhere after the range statement in
// the enclosing function body, dstText is passed to a sort.* or
// slices.Sort* call — the canonical collect-then-sort idiom.
func sortedAfter(pass *analysis.Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, dstText string) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		pkgPath, name, ok := pass.PkgFunc(call.Fun)
		if !ok {
			return true
		}
		isSort := (pkgPath == "sort") || (pkgPath == "slices" && len(name) >= 4 && name[:4] == "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if exprContains(arg, dstText) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprContains reports whether arg is, or syntactically wraps, the
// expression printed as dstText (e.g. sort.Sort(byName(keys))).
func exprContains(arg ast.Expr, dstText string) bool {
	if types.ExprString(arg) == dstText {
		return true
	}
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == dstText {
			found = true
			return false
		}
		return !found
	})
	return found
}
