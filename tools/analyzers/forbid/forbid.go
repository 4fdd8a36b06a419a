// Package forbid is the one table of banned uses: each Rule says what
// may not be used in which part of the tree, and why. A finding's
// category is its rule's name, so it prints and is //lint:allow'ed
// under that name; adding a ban is adding a row here and to
// docs/ANALYZERS.md's table, which a test cross-checks.
//
// Uses are the identifiers the type checker resolved, not text: an
// aliased or dot import, or a function taken as a value, is a use; a
// method is a use of its receiver's type; a comment is not. Test files
// are exempt, as from every nettrailsvet check.
package forbid

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"repro/tools/analyzers/analysis"
)

// Analyzer is the forbid check.
var Analyzer = &analysis.Analyzer{
	Name: "forbid",
	Doc:  "forbid the uses forbid.Rules lists, each in the part of the tree its rule binds",
	Run:  run,
}

// Rule bans Uses in the packages under a Scope root and no Except
// root. A use is a package-level object ("time.Now"; a type bans its
// methods too), "path.*" for every function of the package but the
// seeded constructors, or "go" for the go statement. Why is the
// diagnostic, with %s for the use.
type Rule struct {
	Name          string
	Scope, Except []string
	Uses          []string
	Why           string
}

// seeded is the explicitly seeded subset of math/rand and math/rand/v2:
// determinism comes from owning the seed, not from avoiding the package.
var seeded = map[string]bool{"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true}

// core is a pure function of (program, trace, seed). The store writes
// only virtual instants.
var core = []string{"repro/internal/simnet", "repro/internal/engine", "repro/internal/eval", "repro/internal/rel",
	"repro/internal/wire", "repro/internal/provenance", "repro/internal/provstore"}

// Rules is every banned use in the tree.
var Rules = []Rule{
	{Name: "walltime", Scope: core, Uses: []string{"time.Now", "time.Since", "time.Until", "time.After",
		"time.AfterFunc", "time.Tick", "time.NewTimer", "time.NewTicker", "time.Sleep"},
		Why: "wall-clock %s in the deterministic core: virtual instants (simnet.Time) are the only clock here"},
	{Name: "walltime", Scope: core, Uses: []string{"math/rand.*", "math/rand/v2.*"},
		Why: "ambient randomness %s in the deterministic core: draw from a scenario-seeded *rand.Rand instead"},
	{Name: "wirecodec", Scope: []string{"repro/internal"}, Except: []string{"repro/internal/wire"},
		Uses: []string{"encoding/binary.PutUvarint", "encoding/binary.AppendUvarint", "encoding/binary.Uvarint", "encoding/binary.ReadUvarint"},
		Why:  "%s outside internal/wire: the uvarint codec is written once, as wire.AppendUvarint and wire.Reader"},
	{Name: "identity", Scope: []string{"repro/internal/engine"}, Uses: []string{"repro/internal/eval.RuleExecID"},
		Why: "%s in the engine recomputes a firing's RID: eval.NewFiring mints it once and the firing carries it"},
	{Name: "identity", Scope: []string{"repro/internal/eval"}, Uses: []string{"repro/internal/rel.HashParts"},
		Why: "%s hashes a slice per part: frame the parts into one buffer with rel.AppendPart and hash it with rel.HashBytes"},
	{Name: "corethread", Scope: []string{"repro/internal/engine", "repro/internal/eval", "repro/internal/rel", "repro/internal/provenance"},
		Uses: []string{"go", "sync.WaitGroup", "sync.Mutex", "sync.RWMutex", "sync.Once", "sync/atomic.*", "sync/atomic.Bool", "sync/atomic.Int32",
			"sync/atomic.Int64", "sync/atomic.Uint32", "sync/atomic.Uint64", "sync/atomic.Uintptr", "sync/atomic.Pointer", "sync/atomic.Value"},
		Why: "%s in the single-threaded core: the simulated core runs on the goroutine that calls RunQuiescent and nowhere else"},
	{Name: "errenvelope", Scope: []string{"repro/internal/server", "repro/internal/gateway"}, Uses: []string{"net/http.Error", "net/http.NotFound"},
		Why: "%s writes a plain-text error, bypassing the v1 envelope: use WriteErr/WriteAPIError with a catalog code"},
	{Name: "ctxflow", Scope: []string{"repro/internal/server", "repro/internal/gateway", "repro/internal/provgraph",
		"repro/internal/provquery", "repro/client"}, Uses: []string{"context.Background", "context.TODO"},
		Why: "%s starts a fresh root mid-chain: thread the caller's ctx instead so client disconnects still cancel the walk"},
}

func run(pass *analysis.Pass) (interface{}, error) {
	var rules []Rule
	for _, r := range Rules {
		if analysis.InScope(pass.Pkg.Path(), r.Scope...) && !analysis.InScope(pass.Pkg.Path(), r.Except...) {
			rules = append(rules, r)
		}
	}
	for _, f := range pass.NonTestFiles() {
		selPos := map[*ast.Ident]token.Pos{} // a qualified use is reported where its selector starts
		ast.Inspect(f, func(n ast.Node) bool {
			pos, use, keys := token.NoPos, "", []string(nil)
			switch n := n.(type) {
			case *ast.GoStmt:
				pos, use, keys = n.Pos(), "go statement", []string{"go"}
			case *ast.SelectorExpr:
				selPos[n.Sel] = n.Pos()
			case *ast.Ident:
				obj, isFunc := packageLevel(pass.TypesInfo.Uses[n])
				if obj == nil {
					break
				}
				if pos = selPos[n]; pos == token.NoPos {
					pos = n.Pos()
				}
				use, keys = obj.Pkg().Name()+"."+obj.Name(), []string{obj.Pkg().Path() + "." + obj.Name()}
				if isFunc && !seeded[obj.Name()] {
					keys = append(keys, obj.Pkg().Path()+".*")
				}
			}
			for _, r := range rules {
				if slices.ContainsFunc(keys, func(k string) bool { return slices.Contains(r.Uses, k) }) {
					pass.Report(analysis.Diagnostic{Pos: pos, Category: r.Name, Message: fmt.Sprintf(r.Why, use)})
				}
			}
			return true
		})
	}
	return nil, nil
}

// packageLevel resolves a used object to the package-level object it
// names, a method to its receiver's type, and reports whether that is
// a function. It returns nil for locals, fields and builtins.
func packageLevel(obj types.Object) (types.Object, bool) {
	fn, isFunc := obj.(*types.Func)
	if isFunc && fn.Signature().Recv() != nil {
		named := analysis.NamedOf(fn.Signature().Recv().Type())
		if named == nil {
			return nil, false
		}
		obj, isFunc = named.Obj(), false
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return nil, false
	}
	return obj, isFunc
}
