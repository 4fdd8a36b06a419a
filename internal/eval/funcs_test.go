package eval

import (
	"testing"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

func call(t *testing.T, name string, args ...rel.Value) rel.Value {
	t.Helper()
	fn, ok := builtins[name]
	if !ok {
		t.Fatalf("function %s not registered", name)
	}
	v, err := fn(args)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func callErr(t *testing.T, name string, args ...rel.Value) error {
	t.Helper()
	fn, ok := builtins[name]
	if !ok {
		t.Fatalf("function %s not registered", name)
	}
	_, err := fn(args)
	return err
}

// TestEvalExprCallsBuiltins: a function call evaluates against the
// package's builtins, with no registry in scope; an unknown name is an
// error, not a panic.
func TestEvalExprCallsBuiltins(t *testing.T) {
	call := &ndlog.CallExpr{Func: "f_append", Args: []ndlog.Expr{&ndlog.VarExpr{Name: "L"}, &ndlog.ConstExpr{Val: rel.Int(3)}}}
	got, err := EvalExpr(call, Binding{"L": rel.List(rel.Int(1))})
	if err != nil || got.String() != "[1, 3]" {
		t.Fatalf("f_append(L, 3) = %v, %v; want [1, 3]", got, err)
	}
	ok, err := EvalCond(&ndlog.Cond{Op: "==", Left: call, Right: &ndlog.ConstExpr{Val: rel.List(rel.Int(1), rel.Int(3))}}, Binding{"L": rel.List(rel.Int(1))})
	if err != nil || !ok {
		t.Fatalf("f_append(L, 3) == [1, 3]: %v, %v", ok, err)
	}
	if _, err := EvalExpr(&ndlog.CallExpr{Func: "f_nope"}, nil); err == nil {
		t.Fatal("unknown function evaluated")
	}
}

func TestListFunctions(t *testing.T) {
	l := rel.List(rel.Int(1), rel.Int(2))
	got := call(t, "f_append", l, rel.Int(3))
	if got.String() != "[1, 2, 3]" {
		t.Fatalf("f_append = %v", got)
	}
	got = call(t, "f_prepend", rel.Int(0), l)
	if got.String() != "[0, 1, 2]" {
		t.Fatalf("f_prepend = %v", got)
	}
	got = call(t, "f_concat", l, rel.List(rel.Int(9)))
	if got.String() != "[1, 2, 9]" {
		t.Fatalf("f_concat = %v", got)
	}
	if v, _ := call(t, "f_member", l, rel.Int(2)).AsInt(); v != 1 {
		t.Fatal("f_member should find 2")
	}
	if v, _ := call(t, "f_member", l, rel.Int(5)).AsInt(); v != 0 {
		t.Fatal("f_member should miss 5")
	}
	if v, _ := call(t, "f_size", l).AsInt(); v != 2 {
		t.Fatal("f_size wrong")
	}
	if v := call(t, "f_first", l); !v.Equal(rel.Int(1)) {
		t.Fatal("f_first wrong")
	}
	if v := call(t, "f_last", l); !v.Equal(rel.Int(2)) {
		t.Fatal("f_last wrong")
	}
	if v := call(t, "f_sort", rel.List(rel.Int(3), rel.Int(1))); v.String() != "[1, 3]" {
		t.Fatalf("f_sort = %v", v)
	}
	if v := call(t, "f_initlist", rel.Int(1), rel.Int(2)); v.String() != "[1, 2]" {
		t.Fatalf("f_initlist = %v", v)
	}
	if v := call(t, "f_mklist", rel.Int(1)); v.String() != "[1]" {
		t.Fatalf("f_mklist = %v", v)
	}
}

func TestFAppendDoesNotAliasInput(t *testing.T) {
	l := rel.List(rel.Int(1))
	out1 := call(t, "f_append", l, rel.Int(2))
	out2 := call(t, "f_append", l, rel.Int(3))
	if out1.String() != "[1, 2]" || out2.String() != "[1, 3]" {
		t.Fatalf("aliasing: %v %v", out1, out2)
	}
}

func TestIsExtend(t *testing.T) {
	r1 := rel.List(rel.Str("AS2"), rel.Str("AS3"))
	r2 := rel.List(rel.Str("AS1"), rel.Str("AS2"), rel.Str("AS3"))
	if v, _ := call(t, "f_isExtend", r2, r1, rel.Str("AS1")).AsInt(); v != 1 {
		t.Fatal("f_isExtend should accept a proper extension")
	}
	if v, _ := call(t, "f_isExtend", r2, r1, rel.Str("AS9")).AsInt(); v != 0 {
		t.Fatal("wrong prefix must be rejected")
	}
	if v, _ := call(t, "f_isExtend", r1, r2, rel.Str("AS1")).AsInt(); v != 0 {
		t.Fatal("shrinking must be rejected")
	}
	r3 := rel.List(rel.Str("AS1"), rel.Str("AS2"), rel.Str("AS9"))
	if v, _ := call(t, "f_isExtend", r3, r1, rel.Str("AS1")).AsInt(); v != 0 {
		t.Fatal("suffix mismatch must be rejected")
	}
	ext := call(t, "f_extend", rel.Str("AS1"), r1)
	if v, _ := call(t, "f_isExtend", ext, r1, rel.Str("AS1")).AsInt(); v != 1 {
		t.Fatal("f_extend output should satisfy f_isExtend")
	}
}

func TestMinMaxToStr(t *testing.T) {
	if v := call(t, "f_min", rel.Int(3), rel.Int(1)); !v.Equal(rel.Int(1)) {
		t.Fatal("f_min wrong")
	}
	if v := call(t, "f_max", rel.Int(3), rel.Int(1)); !v.Equal(rel.Int(3)) {
		t.Fatal("f_max wrong")
	}
	if v := call(t, "f_tostr", rel.Int(42)); v.String() != `"42"` {
		t.Fatalf("f_tostr = %v", v)
	}
}

func TestMkvidMatchesTupleVID(t *testing.T) {
	tp := rel.NewTuple("link", rel.Addr("a"), rel.Addr("b"), rel.Int(1))
	v := call(t, "f_mkvid", rel.Str("link"), rel.Addr("a"), rel.Addr("b"), rel.Int(1))
	id, ok := v.AsID()
	if !ok || id != tp.VID() {
		t.Fatalf("f_mkvid = %v, want %v", v, tp.VID())
	}
}

func TestMkridDeterministic(t *testing.T) {
	vid := rel.HashBytes([]byte("x"))
	vids := rel.List(rel.IDValue(vid))
	a := call(t, "f_mkrid", rel.Str("r1"), rel.Addr("n1"), vids)
	b := call(t, "f_mkrid", rel.Str("r1"), rel.Addr("n1"), vids)
	if !a.Equal(b) {
		t.Fatal("f_mkrid must be deterministic")
	}
	c := call(t, "f_mkrid", rel.Str("r2"), rel.Addr("n1"), vids)
	if a.Equal(c) {
		t.Fatal("different rules must give different RIDs")
	}
	// f_mkrid agrees with the runtime's RuleExecID.
	id, _ := a.AsID()
	if id != RuleExecID("r1", "n1", []rel.ID{vid}) {
		t.Fatal("f_mkrid must match RuleExecID")
	}
}

func TestFunctionErrors(t *testing.T) {
	cases := []struct {
		name string
		args []rel.Value
	}{
		{"f_append", []rel.Value{rel.Int(1), rel.Int(2)}},
		{"f_append", []rel.Value{rel.List()}},
		{"f_prepend", []rel.Value{rel.Int(1), rel.Int(2)}},
		{"f_concat", []rel.Value{rel.Int(1), rel.List()}},
		{"f_member", []rel.Value{rel.Int(1), rel.Int(2)}},
		{"f_size", []rel.Value{rel.Int(1)}},
		{"f_first", []rel.Value{rel.List()}},
		{"f_last", []rel.Value{rel.List()}},
		{"f_isExtend", []rel.Value{rel.Int(1), rel.List(), rel.Int(1)}},
		{"f_extend", []rel.Value{rel.Int(1), rel.Int(2)}},
		{"f_sort", []rel.Value{rel.Int(1)}},
		{"f_mkvid", []rel.Value{}},
		{"f_mkvid", []rel.Value{rel.Int(1)}},
		{"f_mkrid", []rel.Value{rel.Str("r")}},
		{"f_mkrid", []rel.Value{rel.Str("r"), rel.Addr("n"), rel.Int(1)}},
		{"f_mkrid", []rel.Value{rel.Str("r"), rel.Addr("n"), rel.List(rel.Int(1))}},
		{"f_mkrid", []rel.Value{rel.Int(1), rel.Addr("n"), rel.List()}},
		{"f_mkrid", []rel.Value{rel.Str("r"), rel.Int(1), rel.List()}},
	}
	for _, c := range cases {
		if err := callErr(t, c.name, c.args...); err == nil {
			t.Errorf("%s(%v) should error", c.name, c.args)
		}
	}
}
