// Package eval implements the per-node incremental NDlog runtime used by
// the NetTrails engine: builtin functions, variable bindings, tuple
// stores, compiled rule plans, incremental aggregates, and the local
// delta-fixpoint loop. Incremental view maintenance is counting-based:
// a derived tuple's count is the number of currently valid rule
// executions (distinct input-tuple combinations) supporting it, matching
// the ExSPAN provenance model where each rule execution is a vertex.
package eval

import (
	"fmt"
	"sort"

	"repro/internal/rel"
)

// Func is a builtin NDlog function (the f_* family).
type Func func(args []rel.Value) (rel.Value, error)

func argErr(name string, want string, args []rel.Value) error {
	return fmt.Errorf("eval: %s expects %s, got %d args", name, want, len(args))
}

// RuleExecID computes the content-addressed identifier of a rule
// execution from the rule name, the executing node, and the input tuple
// VIDs in body order: rel.HashParts over (rule, loc, vid...), framed
// into a stack buffer. Both the runtime provenance hook and the f_mkrid
// builtin use this definition.
func RuleExecID(rule, loc string, vids []rel.ID) rel.ID {
	var scratch [256]byte
	b := rel.AppendPart(scratch[:0], rule)
	b = rel.AppendPart(b, loc)
	for i := range vids {
		b = rel.AppendPart(b, vids[i][:])
	}
	return rel.HashBytes(b)
}

// concatList returns the list a ++ b. Lists that fit the stack buffer
// are allocated once, by List's copy.
func concatList(a, b []rel.Value) rel.Value {
	var buf [16]rel.Value
	return rel.List(append(append(buf[:0], a...), b...)...)
}

var builtins = map[string]Func{
	// f_append(list, v) -> list ++ [v]
	"f_append": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_append", "(list, value)", args)
		}
		l, ok := args[0].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_append: first arg must be list, got %s", args[0].Kind())
		}
		return concatList(l, args[1:]), nil
	},
	// f_prepend(v, list) -> [v] ++ list
	"f_prepend": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_prepend", "(value, list)", args)
		}
		l, ok := args[1].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_prepend: second arg must be list, got %s", args[1].Kind())
		}
		return concatList(args[:1], l), nil
	},
	// f_concat(list1, list2)
	"f_concat": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_concat", "(list, list)", args)
		}
		a, ok1 := args[0].AsList()
		b, ok2 := args[1].AsList()
		if !ok1 || !ok2 {
			return rel.Value{}, fmt.Errorf("eval: f_concat: both args must be lists")
		}
		return concatList(a, b), nil
	},
	// f_member(list, v) -> 1 if v in list else 0
	"f_member": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_member", "(list, value)", args)
		}
		l, ok := args[0].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_member: first arg must be list")
		}
		for _, e := range l {
			if e.Equal(args[1]) {
				return rel.Int(1), nil
			}
		}
		return rel.Int(0), nil
	},
	// f_size(list) -> length
	"f_size": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Value{}, argErr("f_size", "(list)", args)
		}
		l, ok := args[0].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_size: arg must be list")
		}
		return rel.Int(int64(len(l))), nil
	},
	// f_first(list), f_last(list)
	"f_first": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Value{}, argErr("f_first", "(list)", args)
		}
		l, ok := args[0].AsList()
		if !ok || len(l) == 0 {
			return rel.Value{}, fmt.Errorf("eval: f_first: arg must be a non-empty list")
		}
		return l[0], nil
	},
	"f_last": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Value{}, argErr("f_last", "(list)", args)
		}
		l, ok := args[0].AsList()
		if !ok || len(l) == 0 {
			return rel.Value{}, fmt.Errorf("eval: f_last: arg must be a non-empty list")
		}
		return l[len(l)-1], nil
	},
	// f_initlist(a, b) -> [a, b]; f_mklist(v...) -> [v...]
	"f_initlist": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_initlist", "(a, b)", args)
		}
		return rel.List(args[0], args[1]), nil
	},
	"f_mklist": func(args []rel.Value) (rel.Value, error) {
		return rel.List(args...), nil
	},
	// f_isExtend(R2, R1, N) -> 1 iff R2 == [N] ++ R1. This is the
	// interdomain-routing matcher from the paper's maybe rule br1: a
	// router prefixes its identifier to routes it re-advertises.
	"f_isExtend": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 3 {
			return rel.Value{}, argErr("f_isExtend", "(route2, route1, node)", args)
		}
		r2, ok1 := args[0].AsList()
		r1, ok2 := args[1].AsList()
		if !ok1 || !ok2 {
			return rel.Value{}, fmt.Errorf("eval: f_isExtend: routes must be lists")
		}
		if len(r2) != len(r1)+1 || len(r2) == 0 {
			return rel.Int(0), nil
		}
		if !r2[0].Equal(args[2]) {
			return rel.Int(0), nil
		}
		for i, e := range r1 {
			if !r2[i+1].Equal(e) {
				return rel.Int(0), nil
			}
		}
		return rel.Int(1), nil
	},
	// f_extend(N, R) -> [N] ++ R (route prepend)
	"f_extend": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_extend", "(node, route)", args)
		}
		l, ok := args[1].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_extend: second arg must be list")
		}
		return concatList(args[:1], l), nil
	},
	// f_min(a,b) / f_max(a,b) by value order.
	"f_min": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_min", "(a, b)", args)
		}
		if args[0].Compare(args[1]) <= 0 {
			return args[0], nil
		}
		return args[1], nil
	},
	"f_max": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 2 {
			return rel.Value{}, argErr("f_max", "(a, b)", args)
		}
		if args[0].Compare(args[1]) >= 0 {
			return args[0], nil
		}
		return args[1], nil
	},
	// f_tostr(v) -> display string
	"f_tostr": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Value{}, argErr("f_tostr", "(v)", args)
		}
		return rel.Str(args[0].String()), nil
	},
	// f_sort(list) -> sorted copy
	"f_sort": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 1 {
			return rel.Value{}, argErr("f_sort", "(list)", args)
		}
		l, ok := args[0].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_sort: arg must be list")
		}
		cp := make([]rel.Value, len(l))
		copy(cp, l)
		sort.Slice(cp, func(i, j int) bool { return cp[i].Compare(cp[j]) < 0 })
		return rel.List(cp...), nil
	},
	// f_mkvid(relname, args...) -> VID of the tuple relname(args...).
	// Used by the ExSPAN provenance rewrite output.
	"f_mkvid": func(args []rel.Value) (rel.Value, error) {
		if len(args) < 1 {
			return rel.Value{}, argErr("f_mkvid", "(rel, args...)", args)
		}
		name, ok := args[0].AsString()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_mkvid: first arg must be relation name string")
		}
		t := rel.NewTuple(name, args[1:]...)
		return rel.IDValue(t.VID()), nil
	},
	// f_mkrid(rule, loc, vidList) -> RID of a rule execution: the hash
	// of the rule name, the executing location, and the input VIDs.
	// This is the same function the runtime provenance hook uses, so
	// rewrite-generated provenance rules agree with hook-maintained
	// tables exactly.
	"f_mkrid": func(args []rel.Value) (rel.Value, error) {
		if len(args) != 3 {
			return rel.Value{}, argErr("f_mkrid", "(rule, loc, vidList)", args)
		}
		rule, ok := args[0].AsString()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_mkrid: first arg must be rule name string")
		}
		loc, ok := args[1].AsString()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_mkrid: second arg must be location")
		}
		vids, ok := args[2].AsList()
		if !ok {
			return rel.Value{}, fmt.Errorf("eval: f_mkrid: third arg must be a VID list")
		}
		ids := make([]rel.ID, len(vids))
		for i, v := range vids {
			id, ok := v.AsID()
			if !ok {
				return rel.Value{}, fmt.Errorf("eval: f_mkrid: vids must be IDs, got %s", v.Kind())
			}
			ids[i] = id
		}
		return rel.IDValue(RuleExecID(rule, loc, ids)), nil
	},
}
