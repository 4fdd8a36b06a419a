package ndlog

import (
	"cmp"
	"strconv"

	"repro/internal/rel"
)

// Parser builds a Program from NDlog source.
type Parser struct {
	lex *Lexer
	tok Token
	err error
}

// Parse parses a complete NDlog program. A lexical error is reported
// as itself, not as the parse error the EOF token after it causes.
func Parse(src string) (*Program, error) {
	p := NewParser(src)
	prog := &Program{}
	for p.tok.Kind != TokEOF {
		if p.tok.Kind == TokIdent && p.tok.Text == "materialize" {
			m, err := p.parseMaterialize()
			if err = cmp.Or(p.err, err); err != nil {
				return nil, err
			}
			prog.Materialized = append(prog.Materialized, m)
			continue
		}
		r, err := p.parseRule()
		if err = cmp.Or(p.err, err); err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

// MustParse parses or panics; for static program literals in this repo.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// NewParser returns a parser at src's first token, for a caller that
// reads its own grammar around NDlog fact literals with Tok, Next and
// Fact.
func NewParser(src string) *Parser {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	return p
}

// Tok returns the current token; it is TokEOF after a lexical error.
func (p *Parser) Tok() Token { return p.tok }

// Next advances to the next token.
func (p *Parser) Next() { p.next() }

// Err returns the lexical error that ended the token stream, if any.
func (p *Parser) Err() error { return p.err }

// Fact parses a fact atom, a relation name and constant arguments, at
// the current token and returns the tuple it denotes. A lexical error
// up to and including the token after the fact is returned first.
func (p *Parser) Fact() (rel.Tuple, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return rel.Tuple{}, err
	}
	a, err := p.parseAtomArgs(name.Text, false)
	if err = cmp.Or(p.err, err); err != nil {
		return rel.Tuple{}, err
	}
	return a.Fact()
}

func (p *Parser) next() {
	if p.err != nil {
		return
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.tok = Token{Kind: TokEOF}
		return
	}
	p.tok = t
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	if p.tok.Kind != k {
		return Token{}, errf(p.tok.Line, p.tok.Col, "expected %s, got %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t, nil
}

// materialize(link, infinity, infinity, keys(1,2)).
func (p *Parser) parseMaterialize() (*MaterializeDecl, error) {
	p.next() // consume 'materialize'
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	lifetime, err := p.parseLifetimeOrSize()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	size, err := p.parseLifetimeOrSize()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	kw, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if kw.Text != "keys" {
		return nil, errf(kw.Line, kw.Col, "expected keys(...), got %q", kw.Text)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	m := &MaterializeDecl{Name: name.Text, Lifetime: lifetime, Size: size}
	for p.tok.Kind != TokRParen {
		it, err := p.expect(TokInt)
		if err != nil {
			return nil, err
		}
		n, convErr := strconv.Atoi(it.Text)
		if convErr != nil || n < 1 {
			return nil, errf(it.Line, it.Col, "bad key position %q", it.Text)
		}
		m.Keys = append(m.Keys, n)
		if p.tok.Kind == TokComma {
			p.next()
		}
	}
	p.next() // ')'
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPeriod); err != nil {
		return nil, err
	}
	return m, nil
}

func (p *Parser) parseLifetimeOrSize() (string, error) {
	switch p.tok.Kind {
	case TokIdent:
		if p.tok.Text != "infinity" {
			return "", errf(p.tok.Line, p.tok.Col, "expected number or 'infinity', got %q", p.tok.Text)
		}
		t := p.tok.Text
		p.next()
		return t, nil
	case TokInt:
		t := p.tok.Text
		p.next()
		return t, nil
	}
	return "", errf(p.tok.Line, p.tok.Col, "expected number or 'infinity', got %s", p.tok)
}

// rule := [label] atom (:-|?-) body '.'   |   [label] atom '.'
func (p *Parser) parseRule() (*Rule, error) {
	r := &Rule{}
	// A rule label is an identifier immediately followed by another
	// identifier (the head relation). Distinguish by lookahead: parse
	// first ident; if next token is '(' it was the head relation.
	first, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	var headName Token
	if p.tok.Kind == TokLParen {
		headName = first
	} else {
		r.Label = first.Text
		headName, err = p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
	}
	head, err := p.parseAtomArgs(headName.Text, true)
	if err != nil {
		return nil, err
	}
	r.Head = head
	switch p.tok.Kind {
	case TokPeriod:
		p.next()
		return r, nil // fact-style rule with empty body
	case TokDerive:
		p.next()
	case TokMaybe:
		r.Maybe = true
		p.next()
	default:
		return nil, errf(p.tok.Line, p.tok.Col, "expected ':-', '?-' or '.', got %s", p.tok)
	}
	for {
		term, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		r.Body = append(r.Body, term)
		if p.tok.Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokPeriod); err != nil {
		return nil, err
	}
	return r, nil
}

// term := atom | assign | cond
func (p *Parser) parseTerm() (Term, error) {
	// Assignment: Variable ':=' expr
	if p.tok.Kind == TokVariable {
		name := p.tok
		p.next()
		if p.tok.Kind == TokAssign {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Assign{Var: name.Text, Expr: e}, nil
		}
		// Otherwise it starts a comparison whose left side begins with
		// this variable.
		left, err := p.continueExpr(&VarExpr{Name: name.Text})
		if err != nil {
			return nil, err
		}
		return p.parseCondRest(left)
	}
	// Atom: ident '(' ... — but an ident could also start a function
	// call in a comparison (f_foo(...) == 1).
	if p.tok.Kind == TokIdent {
		name := p.tok
		if isFuncName(name.Text) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return p.parseCondRest(e)
		}
		p.next()
		if p.tok.Kind != TokLParen {
			return nil, errf(p.tok.Line, p.tok.Col, "expected '(' after %q", name.Text)
		}
		return p.parseAtomArgs(name.Text, false)
	}
	// Anything else: a comparison beginning with a literal or paren.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return p.parseCondRest(e)
}

func isFuncName(s string) bool { return len(s) > 2 && s[0] == 'f' && s[1] == '_' }

func (p *Parser) parseCondRest(left Expr) (Term, error) {
	op := ""
	switch p.tok.Kind {
	case TokLT:
		op = "<"
	case TokLE:
		op = "<="
	case TokGT:
		op = ">"
	case TokGE:
		op = ">="
	case TokEQ:
		op = "=="
	case TokNE:
		op = "!="
	default:
		return nil, errf(p.tok.Line, p.tok.Col, "expected comparison operator, got %s", p.tok)
	}
	p.next()
	right, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{Op: op, Left: left, Right: right}, nil
}

// parseAtomArgs parses '(' args ')' for relation rel. In head position
// aggregates (min<C>) are allowed and wildcards are not.
func (p *Parser) parseAtomArgs(relName string, isHead bool) (*Atom, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	a := &Atom{Rel: relName, LocArg: -1}
	for p.tok.Kind != TokRParen {
		isLoc := false
		if p.tok.Kind == TokAt {
			isLoc = true
			p.next()
		}
		arg, err := p.parseArg(isHead)
		if err != nil {
			return nil, err
		}
		if isLoc {
			if a.LocArg >= 0 {
				return nil, errf(p.tok.Line, p.tok.Col, "atom %s has two location specifiers", relName)
			}
			a.LocArg = len(a.Args)
		}
		a.Args = append(a.Args, arg)
		if p.tok.Kind == TokComma {
			p.next()
			continue
		}
		if p.tok.Kind != TokRParen {
			return nil, errf(p.tok.Line, p.tok.Col, "expected ',' or ')', got %s", p.tok)
		}
	}
	p.next() // ')'
	return a, nil
}

var aggFuncs = map[string]bool{"min": true, "max": true, "count": true, "sum": true, "avg": true}

func (p *Parser) parseArg(isHead bool) (Arg, error) {
	switch p.tok.Kind {
	case TokVariable:
		name := p.tok.Text
		p.next()
		return &VarArg{Name: name}, nil
	case TokUnderscore:
		if isHead {
			return nil, errf(p.tok.Line, p.tok.Col, "wildcard not allowed in rule head")
		}
		p.next()
		return &Wildcard{}, nil
	case TokIdent:
		name := p.tok
		if !aggFuncs[name.Text] {
			hint := ""
			if isHead {
				hint = " (aggregates: min/max/count/sum/avg)"
			}
			return nil, errf(name.Line, name.Col, "unexpected identifier %q in argument%s", name.Text, hint)
		}
		if !isHead {
			return nil, errf(name.Line, name.Col, "aggregate %s<> only allowed in rule head", name.Text)
		}
		p.next()
		if _, err := p.expect(TokLT); err != nil {
			return nil, err
		}
		agg := &AggArg{Func: name.Text}
		if p.tok.Kind == TokVariable {
			agg.Var = p.tok.Text
			p.next()
		} else if p.tok.Kind == TokStar {
			p.next() // count<*>
		}
		if _, err := p.expect(TokGT); err != nil {
			return nil, err
		}
		if agg.Var == "" && agg.Func != "count" {
			return nil, errf(name.Line, name.Col, "aggregate %s requires a variable", name.Text)
		}
		return agg, nil
	case TokInt, TokFloat, TokString, TokAddr, TokMinus:
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &ConstArg{Val: v}, nil
	case TokLBracket:
		v, err := p.parseListLiteral()
		if err != nil {
			return nil, err
		}
		return &ConstArg{Val: v}, nil
	}
	return nil, errf(p.tok.Line, p.tok.Col, "expected argument, got %s", p.tok)
}

func (p *Parser) parseLiteral() (rel.Value, error) {
	neg := false
	if p.tok.Kind == TokMinus {
		neg = true
		p.next()
	}
	t := p.tok
	switch t.Kind {
	case TokInt:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return rel.Value{}, errf(t.Line, t.Col, "bad integer %q", t.Text)
		}
		p.next()
		if neg {
			n = -n
		}
		return rel.Int(n), nil
	case TokFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return rel.Value{}, errf(t.Line, t.Col, "bad float %q", t.Text)
		}
		p.next()
		if neg {
			f = -f
		}
		return rel.Float(f), nil
	case TokString:
		if neg {
			return rel.Value{}, errf(t.Line, t.Col, "cannot negate a string")
		}
		p.next()
		return rel.Str(t.Text), nil
	case TokAddr:
		if neg {
			return rel.Value{}, errf(t.Line, t.Col, "cannot negate an address")
		}
		p.next()
		return rel.Addr(t.Text), nil
	}
	return rel.Value{}, errf(t.Line, t.Col, "expected literal, got %s", t)
}

func (p *Parser) parseListLiteral() (rel.Value, error) {
	if _, err := p.expect(TokLBracket); err != nil {
		return rel.Value{}, err
	}
	var elems []rel.Value
	for p.tok.Kind != TokRBracket {
		v, err := p.parseLiteral()
		if err != nil {
			return rel.Value{}, err
		}
		elems = append(elems, v)
		if p.tok.Kind == TokComma {
			p.next()
		}
	}
	p.next() // ']'
	return rel.List(elems...), nil
}

// Expression grammar: expr := mul {(+|-) mul}; mul := unary {(*|/|%) unary};
// unary := primary; primary := literal | var | call | '(' expr ')' | list.
func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	return p.parseExprRest(left)
}

func (p *Parser) parseExprRest(left Expr) (Expr, error) {
	for {
		var op string
		switch p.tok.Kind {
		case TokPlus:
			op = "+"
		case TokMinus:
			op = "-"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

// continueExpr resumes expression parsing when the first primary has
// already been consumed (used when disambiguating terms).
func (p *Parser) continueExpr(first Expr) (Expr, error) {
	left := first
	for {
		var op string
		switch p.tok.Kind {
		case TokStar:
			op = "*"
		case TokSlash:
			op = "/"
		case TokPercent:
			op = "%"
		default:
			return p.parseExprRest(left)
		}
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch p.tok.Kind {
		case TokStar:
			op = "*"
		case TokSlash:
			op = "/"
		case TokPercent:
			op = "%"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case TokVariable:
		name := p.tok.Text
		p.next()
		return &VarExpr{Name: name}, nil
	case TokInt, TokFloat, TokString, TokAddr, TokMinus:
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Val: v}, nil
	case TokLBracket:
		v, err := p.parseListLiteral()
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Val: v}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		name := p.tok
		if !isFuncName(name.Text) {
			return nil, errf(name.Line, name.Col, "expected f_* function, got %q", name.Text)
		}
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		call := &CallExpr{Func: name.Text}
		for p.tok.Kind != TokRParen {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if p.tok.Kind == TokComma {
				p.next()
			}
		}
		p.next() // ')'
		return call, nil
	}
	return nil, errf(p.tok.Line, p.tok.Col, "expected expression, got %s", p.tok)
}
