package ndlog

import (
	"strings"
	"testing"
)

const mincostSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2)).
materialize(mincost, infinity, infinity, keys(1,2)).

c1 cost(@S,D,C) :- link(@S,D,C).
c2 cost(@S,D,C) :- link(@S,Z,C1), mincost(@Z,D,C2), C := C1 + C2.
c3 mincost(@S,D,min<C>) :- cost(@S,D,C).
`

func TestLexAllBasics(t *testing.T) {
	toks, err := LexAll(`r1 a(@X,1,"s",'n1',2.5) :- b(@X,_), X != Y, C := 1+2*3. // c`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{
		TokIdent, TokIdent, TokLParen, TokAt, TokVariable, TokComma, TokInt, TokComma,
		TokString, TokComma, TokAddr, TokComma, TokFloat, TokRParen, TokDerive,
		TokIdent, TokLParen, TokAt, TokVariable, TokComma, TokUnderscore, TokRParen, TokComma,
		TokVariable, TokNE, TokVariable, TokComma,
		TokVariable, TokAssign, TokInt, TokPlus, TokInt, TokStar, TokInt, TokPeriod, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := LexAll("/* block\ncomment */ a %% line\n b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comment handling wrong: %v", toks)
	}
	if _, err := LexAll("/* unterminated"); err == nil {
		t.Fatal("unterminated block comment must error")
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := LexAll(`"a\nb\t\"q\""`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\nb\t\"q\"" {
		t.Fatalf("escaped string = %q", toks[0].Text)
	}
	if _, err := LexAll(`"unterminated`); err == nil {
		t.Fatal("unterminated string must error")
	}
	if _, err := LexAll(`"bad \x"`); err == nil {
		t.Fatal("bad escape must error")
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{":x", "?x", "=x", "!x", "#", "\xc3"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("LexAll(%q) should error", src)
		}
	}
	// A bad escape is reported at its backslash.
	if _, err := LexAll(`r(@'n1',"a\qb")`); err == nil || !strings.Contains(err.Error(), `line 1:11: bad escape \q`) {
		t.Errorf("bad escape reported as %v", err)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("first token position %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("second token position %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestParseMincost(t *testing.T) {
	p, err := Parse(mincostSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Materialized) != 3 {
		t.Fatalf("materialized = %d", len(p.Materialized))
	}
	if p.Materialized[0].Name != "link" || len(p.Materialized[0].Keys) != 2 {
		t.Fatalf("link decl = %+v", p.Materialized[0])
	}
	if len(p.Rules) != 3 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	r2 := p.Rules[1]
	if r2.Label != "c2" || r2.Head.Rel != "cost" {
		t.Fatalf("rule c2 = %v", r2)
	}
	if len(r2.Body) != 3 {
		t.Fatalf("c2 body terms = %d", len(r2.Body))
	}
	if _, ok := r2.Body[2].(*Assign); !ok {
		t.Fatalf("c2 third term should be assign, got %T", r2.Body[2])
	}
	r3 := p.Rules[2]
	if !r3.Head.HasAgg() {
		t.Fatal("c3 head should contain aggregate")
	}
	agg := r3.Head.Args[2].(*AggArg)
	if agg.Func != "min" || agg.Var != "C" {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestParseMaybeRule(t *testing.T) {
	src := `br1 outputRoute(@AS,R2,Prefix,Route2) ?- inputRoute(@AS,R1,Prefix,Route1), f_isExtend(Route2,Route1,AS) == 1.`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.Maybe {
		t.Fatal("rule should be maybe")
	}
	if len(r.BodyAtoms()) != 1 {
		t.Fatalf("maybe body atoms = %d", len(r.BodyAtoms()))
	}
	cond, ok := r.Body[1].(*Cond)
	if !ok || cond.Op != "==" {
		t.Fatalf("second term = %v", r.Body[1])
	}
	call, ok := cond.Left.(*CallExpr)
	if !ok || call.Func != "f_isExtend" || len(call.Args) != 3 {
		t.Fatalf("call = %v", cond.Left)
	}
}

func TestParseFact(t *testing.T) {
	p, err := Parse(`f1 link(@'n1','n2',3).`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if len(r.Body) != 0 {
		t.Fatal("fact must have empty body")
	}
	c := r.Head.Args[0].(*ConstArg)
	if a, ok := c.Val.AsAddr(); !ok || a != "n1" {
		t.Fatalf("fact loc = %v", c.Val)
	}
}

func TestParseUnlabeledRule(t *testing.T) {
	p, err := Parse(`path(@S,D) :- link(@S,D,_).`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].Label != "" || p.Rules[0].Head.Rel != "path" {
		t.Fatalf("rule = %+v", p.Rules[0])
	}
}

func TestParseNegativeLiteralsAndLists(t *testing.T) {
	p, err := Parse(`f1 r(@'n1',-5,-2.5,[1,2,3]).`)
	if err != nil {
		t.Fatal(err)
	}
	args := p.Rules[0].Head.Args
	if v, _ := args[1].(*ConstArg).Val.AsInt(); v != -5 {
		t.Fatalf("neg int = %v", args[1])
	}
	if v, _ := args[2].(*ConstArg).Val.AsFloat(); v != -2.5 {
		t.Fatalf("neg float = %v", args[2])
	}
	if l, ok := args[3].(*ConstArg).Val.AsList(); !ok || len(l) != 3 {
		t.Fatalf("list = %v", args[3])
	}
}

func TestParsePrecedence(t *testing.T) {
	p, err := Parse(`r1 a(@S,X) :- b(@S,C), X := 1 + C * 2.`)
	if err != nil {
		t.Fatal(err)
	}
	as := p.Rules[0].Body[1].(*Assign)
	bin := as.Expr.(*BinExpr)
	if bin.Op != "+" {
		t.Fatalf("top op = %s, want +", bin.Op)
	}
	if inner, ok := bin.R.(*BinExpr); !ok || inner.Op != "*" {
		t.Fatalf("right = %v", bin.R)
	}
}

func TestParseParenExpr(t *testing.T) {
	p, err := Parse(`r1 a(@S,X) :- b(@S,C), X := (1 + C) * 2.`)
	if err != nil {
		t.Fatal(err)
	}
	bin := p.Rules[0].Body[1].(*Assign).Expr.(*BinExpr)
	if bin.Op != "*" {
		t.Fatalf("top op = %s, want *", bin.Op)
	}
}

func TestParseCondStartingWithVariableTimes(t *testing.T) {
	// A condition whose left side is Var * 2 exercises continueExpr.
	p, err := Parse(`r1 a(@S) :- b(@S,C), C * 2 < 10.`)
	if err != nil {
		t.Fatal(err)
	}
	cond := p.Rules[0].Body[1].(*Cond)
	if cond.Op != "<" {
		t.Fatalf("op = %s", cond.Op)
	}
	if bin, ok := cond.Left.(*BinExpr); !ok || bin.Op != "*" {
		t.Fatalf("left = %v", cond.Left)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`materialize(link, infinity).`,
		`materialize(link, infinity, infinity, keyz(1)).`,
		`materialize(link, forever, infinity, keys(1)).`,
		`materialize(link, infinity, infinity, keys(0)).`,
		`r1 a(@S) : b(@S).`,
		`r1 a(@S) :- b(@S)`,
		`r1 a(@@S) :- b(@S).`,
		`r1 a(@S, min<C>, max<D>) :- b(@S,C,D),`,
		`r1 a(@S) :- b(@S,min<C>).`,
		`r1 a(@S,_) :- b(@S).`,
		`r1 a(@S) :- X.`,
		`r1 a(@S) :- b(@S,"x.`,
		`r1 a(@S) :- b(@S), C := -"s".`,
		`r1 a(@S) :- b(@S), badident.`,
		`r1 a(@S) :- b(@S), f_g(1 == 2.`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should error", src)
		}
	}
	// A lexical error inside an atom is reported as itself.
	if _, err := Parse(`f1 r(@'n1',"a\qb").`); err == nil || !strings.Contains(err.Error(), `bad escape \q`) {
		t.Errorf("bad escape reported as %v", err)
	}
	// Only a rule head may hold an aggregate, so only a head's error
	// suggests one.
	const hint = "(aggregates:"
	if _, err := Parse(`r1 a(@S,c) :- b(@S).`); err == nil || !strings.Contains(err.Error(), hint) {
		t.Errorf("rule head error %v lacks the aggregate hint", err)
	}
	if _, err := Parse(`r1 a(@S) :- b(@S,c).`); err == nil || strings.Contains(err.Error(), hint) {
		t.Errorf("body atom error %v carries the aggregate hint", err)
	}
	if _, err := NewParser(`r(@'n1',true)`).Fact(); err == nil || strings.Contains(err.Error(), hint) {
		t.Errorf("fact error %v carries the aggregate hint", err)
	}
}

func TestPrettyPrintRoundTrip(t *testing.T) {
	p, err := Parse(mincostSrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := p.String()
	p2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse of pretty output failed: %v\n%s", err, printed)
	}
	if p2.String() != printed {
		t.Fatalf("pretty print not a fixpoint:\n%s\nvs\n%s", printed, p2.String())
	}
	if !strings.Contains(printed, "min<C>") {
		t.Fatalf("aggregate lost in printing:\n%s", printed)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse(`c2 cost(@S,D,C) :- link(@S,Z,C1), mincost(@Z,D,C2), C := C1 + C2, C < 100.`)
	r := p.Rules[0]
	c := r.Clone()
	c.Head.Rel = "changed"
	c.Body[0].(*Atom).Args[0] = &VarArg{Name: "ZZ"}
	if r.Head.Rel != "cost" {
		t.Fatal("clone mutated original head")
	}
	if r.Body[0].(*Atom).Args[0].(*VarArg).Name != "S" {
		t.Fatal("clone mutated original body")
	}
	if c.String() == r.String() {
		t.Fatal("clone should now differ")
	}
}

func TestProgramRelations(t *testing.T) {
	p := MustParse(mincostSrc)
	rels := p.Relations()
	want := []string{"cost", "link", "mincost"}
	if len(rels) != len(want) {
		t.Fatalf("relations = %v", rels)
	}
	for i := range want {
		if rels[i] != want[i] {
			t.Fatalf("relations = %v, want %v", rels, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not a program (")
}
