package rewrite

import (
	"fmt"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// Provenance relation names used across the platform.
const (
	ProvRel     = "prov"     // prov(@Loc, VID, RID, RLoc)
	RuleExecRel = "ruleExec" // ruleExec(@RLoc, RID, Rule, VIDList)
)

// Provenance applies ExSPAN's automatic rule rewriting: it returns a new
// program containing the input program plus, for every executable rule,
// two provenance-maintenance rules that define ruleExec and prov as
// views over the rule's body. Run it after Localize so every generated
// rule is single-location in the body.
//
// For a rule  R  h(@H, ...) :- b1(@L, ...), ..., bn(@L, ...), conds:
//
//	R_pr1 ruleExec(@L, RID, "R", VIDs) :- b1...bn, conds,
//	       VIDs := f_mklist(f_mkvid("b1", ...), ..., f_mkvid("bn", ...)),
//	       RID  := f_mkrid("R", L, VIDs).
//	R_pr2 prov(@H, VID, RID, L) :- b1...bn, conds, <head assigns>,
//	       VID := f_mkvid("h", H, ...), VIDs := ..., RID := ....
//
// Base tuples get prov entries with the zero RID from the engine, not
// from rewrite rules. Aggregate rules are left out: rewrite rules cannot
// express their provenance, which the runtime's aggregate machinery
// maintains, since it knows the winning contributions.
func Provenance(p *ndlog.Program) (*ndlog.Program, error) {
	out := &ndlog.Program{Name: p.Name}
	for _, m := range p.Materialized {
		out.Materialized = append(out.Materialized, m)
	}
	out.Rules = append(out.Rules, p.Rules...)

	out.Materialized = append(out.Materialized,
		&ndlog.MaterializeDecl{Name: ProvRel, Lifetime: "infinity", Size: "infinity", Keys: []int{1, 2, 3, 4}},
		&ndlog.MaterializeDecl{Name: RuleExecRel, Lifetime: "infinity", Size: "infinity", Keys: []int{1, 2}},
	)

	for _, r := range p.Rules {
		if r.Maybe || len(r.Body) == 0 || r.Head.HasAgg() {
			continue
		}
		pr1, pr2, err := provRulesFor(r)
		if err != nil {
			return nil, err
		}
		out.Rules = append(out.Rules, pr1, pr2)
	}
	return out, nil
}

// provRulesFor builds the two maintenance rules for one executable rule.
func provRulesFor(r *ndlog.Rule) (*ndlog.Rule, *ndlog.Rule, error) {
	name := ruleName(r)
	body := freshenWildcards(r)
	atoms := atomsOf(body)
	if len(atoms) == 0 {
		return nil, nil, fmt.Errorf("rewrite: rule %s has no body atoms", name)
	}
	locVar, ok := atoms[0].LocVar()
	if !ok {
		return nil, nil, fmt.Errorf("rewrite: rule %s: body location is not a variable; localize first", name)
	}
	for _, a := range atoms[1:] {
		lv, ok := a.LocVar()
		if !ok || lv != locVar {
			return nil, nil, fmt.Errorf("rewrite: rule %s: body not single-location; localize first", name)
		}
	}

	// VIDs := f_mklist(f_mkvid("b1", args...), ...)
	vidCalls := make([]ndlog.Expr, len(atoms))
	for i, a := range atoms {
		call := &ndlog.CallExpr{Func: "f_mkvid", Args: []ndlog.Expr{&ndlog.ConstExpr{Val: rel.Str(a.Rel)}}}
		for _, arg := range a.Args {
			e, err := argExpr(arg)
			if err != nil {
				return nil, nil, fmt.Errorf("rewrite: rule %s: %v", name, err)
			}
			call.Args = append(call.Args, e)
		}
		vidCalls[i] = call
	}
	vidsVar := "PrVIDs"
	ridVar := "PrRID"
	vidAssign := &ndlog.Assign{Var: vidsVar, Expr: &ndlog.CallExpr{Func: "f_mklist", Args: vidCalls}}
	ridAssign := &ndlog.Assign{Var: ridVar, Expr: &ndlog.CallExpr{
		Func: "f_mkrid",
		Args: []ndlog.Expr{
			&ndlog.ConstExpr{Val: rel.Str(name)},
			&ndlog.VarExpr{Name: locVar},
			&ndlog.VarExpr{Name: vidsVar},
		},
	}}

	// R_pr1: ruleExec(@L, RID, "R", VIDs)
	pr1 := &ndlog.Rule{
		Label: name + "_pr1",
		Head: &ndlog.Atom{
			Rel:    RuleExecRel,
			LocArg: 0,
			Args: []ndlog.Arg{
				&ndlog.VarArg{Name: locVar},
				&ndlog.VarArg{Name: ridVar},
				&ndlog.ConstArg{Val: rel.Str(name)},
				&ndlog.VarArg{Name: vidsVar},
			},
		},
		Body: append(cloneBody(body), vidAssign, ridAssign),
	}

	// R_pr2: prov(@H, VID, RID, L) — the head VID needs the head's
	// attribute values, available from the body binding.
	headVIDCall := &ndlog.CallExpr{Func: "f_mkvid", Args: []ndlog.Expr{&ndlog.ConstExpr{Val: rel.Str(r.Head.Rel)}}}
	for _, arg := range r.Head.Args {
		e, err := argExpr(arg)
		if err != nil {
			return nil, nil, fmt.Errorf("rewrite: rule %s head: %v", name, err)
		}
		headVIDCall.Args = append(headVIDCall.Args, e)
	}
	headLoc, ok := r.Head.LocVar()
	var headLocArg ndlog.Arg = &ndlog.VarArg{Name: headLoc}
	if !ok {
		ca, isConst := r.Head.Args[r.Head.LocArg].(*ndlog.ConstArg)
		if !isConst {
			return nil, nil, fmt.Errorf("rewrite: rule %s: unsupported head location argument", name)
		}
		headLocArg = &ndlog.ConstArg{Val: ca.Val}
	}
	vidVar := "PrVID"
	pr2 := &ndlog.Rule{
		Label: name + "_pr2",
		Head: &ndlog.Atom{
			Rel:    ProvRel,
			LocArg: 0,
			Args: []ndlog.Arg{
				headLocArg,
				&ndlog.VarArg{Name: vidVar},
				&ndlog.VarArg{Name: ridVar},
				&ndlog.VarArg{Name: locVar},
			},
		},
		Body: append(cloneBody(body),
			vidAssign,
			ridAssign,
			&ndlog.Assign{Var: vidVar, Expr: headVIDCall},
		),
	}
	return pr1, pr2, nil
}

func atomsOf(body []ndlog.Term) []*ndlog.Atom {
	var out []*ndlog.Atom
	for _, t := range body {
		if a, ok := t.(*ndlog.Atom); ok {
			out = append(out, a)
		}
	}
	return out
}

func cloneBody(body []ndlog.Term) []ndlog.Term {
	out := make([]ndlog.Term, len(body))
	for i, t := range body {
		out[i] = cloneTerm(t)
	}
	return out
}

// freshenWildcards replaces _ arguments with fresh variables so tuple
// VIDs can be computed over full attribute lists.
func freshenWildcards(r *ndlog.Rule) []ndlog.Term {
	body := cloneBody(r.Body)
	n := 0
	for _, t := range body {
		a, ok := t.(*ndlog.Atom)
		if !ok {
			continue
		}
		for i, arg := range a.Args {
			if _, wild := arg.(*ndlog.Wildcard); wild {
				a.Args[i] = &ndlog.VarArg{Name: fmt.Sprintf("PrWild%d", n)}
				n++
			}
		}
	}
	return body
}

// argExpr converts a head/body argument into an expression for VID
// computation.
func argExpr(arg ndlog.Arg) (ndlog.Expr, error) {
	switch arg := arg.(type) {
	case *ndlog.VarArg:
		return &ndlog.VarExpr{Name: arg.Name}, nil
	case *ndlog.ConstArg:
		return &ndlog.ConstExpr{Val: arg.Val}, nil
	default:
		return nil, fmt.Errorf("cannot take VID of argument %s", arg)
	}
}
