package eval

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// Binding is a variable environment during rule evaluation. An
// evaluator binds into one map in place and undoes through a Trail
// when it backtracks, so a probed row costs no copy of the binding.
type Binding map[string]rel.Value

// Trail records the variables bound into a Binding, in binding order,
// so a backtracking evaluator can undo them: take a mark (its length)
// before matching, and Undo to that mark when the branch is done.
type Trail []string

// Undo unbinds every variable recorded since mark.
func (tr *Trail) Undo(b Binding, mark int) {
	for _, name := range (*tr)[mark:] {
		delete(b, name)
	}
	*tr = (*tr)[:mark]
}

// MatchAtom unifies a tuple against a body atom pattern, extending the
// binding in place and recording each newly bound variable on trail.
// Returns false when the tuple does not match (constant mismatch or
// repeated-variable inequality); the binding and trail are then as
// they were.
func MatchAtom(a *ndlog.Atom, t rel.Tuple, b Binding, trail *Trail) bool {
	if a.Rel != t.Rel || len(a.Args) != len(t.Vals) {
		return false
	}
	mark := len(*trail)
	for i, arg := range a.Args {
		switch arg := arg.(type) {
		case *ndlog.Wildcard:
			// matches anything
		case *ndlog.ConstArg:
			if !arg.Val.Equal(t.Vals[i]) {
				trail.Undo(b, mark)
				return false
			}
		case *ndlog.VarArg:
			if bound, ok := b[arg.Name]; ok {
				if !bound.Equal(t.Vals[i]) {
					trail.Undo(b, mark)
					return false
				}
			} else {
				b[arg.Name] = t.Vals[i]
				*trail = append(*trail, arg.Name)
			}
		default:
			trail.Undo(b, mark)
			return false // aggregates never occur in body atoms
		}
	}
	return true
}

// EvalExpr evaluates an expression under the binding.
func EvalExpr(e ndlog.Expr, b Binding) (rel.Value, error) {
	switch e := e.(type) {
	case *ndlog.ConstExpr:
		return e.Val, nil
	case *ndlog.VarExpr:
		v, ok := b[e.Name]
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: unbound variable %s", e.Name)
		}
		return v, nil
	case *ndlog.BinExpr:
		l, err := EvalExpr(e.L, b)
		if err != nil {
			return rel.Value{}, err
		}
		r, err := EvalExpr(e.R, b)
		if err != nil {
			return rel.Value{}, err
		}
		return rel.Arith(e.Op, l, r)
	case *ndlog.CallExpr:
		fn, ok := builtins[e.Func]
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: unknown function %s", e.Func)
		}
		args := make([]rel.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := EvalExpr(a, b)
			if err != nil {
				return rel.Value{}, err
			}
			args[i] = v
		}
		return fn(args)
	}
	return rel.Value{}, fmt.Errorf("eval: unknown expression type %T", e)
}

// EvalCond evaluates a comparison under the binding.
func EvalCond(c *ndlog.Cond, b Binding) (bool, error) {
	l, err := EvalExpr(c.Left, b)
	if err != nil {
		return false, err
	}
	r, err := EvalExpr(c.Right, b)
	if err != nil {
		return false, err
	}
	cmp := l.Compare(r)
	switch c.Op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	case "==":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	}
	return false, fmt.Errorf("eval: unknown comparison operator %q", c.Op)
}

// ProjectHead instantiates the rule head under a completed binding.
// Aggregate arguments are substituted with the provided value (the
// aggregate machinery passes the group's current aggregate output);
// passing an invalid rel.Value for a head with aggregates is an error.
func ProjectHead(head *ndlog.Atom, b Binding, aggVal rel.Value) (rel.Tuple, error) {
	vals := make([]rel.Value, len(head.Args))
	for i, arg := range head.Args {
		switch arg := arg.(type) {
		case *ndlog.ConstArg:
			vals[i] = arg.Val
		case *ndlog.VarArg:
			v, ok := b[arg.Name]
			if !ok {
				return rel.Tuple{}, fmt.Errorf("eval: head variable %s unbound", arg.Name)
			}
			vals[i] = v
		case *ndlog.AggArg:
			if !aggVal.IsValid() {
				return rel.Tuple{}, fmt.Errorf("eval: aggregate head %s projected without aggregate value", head.Rel)
			}
			vals[i] = aggVal
		default:
			return rel.Tuple{}, fmt.Errorf("eval: bad head argument %T", arg)
		}
	}
	return rel.Tuple{Rel: head.Rel, Vals: vals}, nil
}
