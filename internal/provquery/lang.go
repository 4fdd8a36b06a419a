package provquery

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// A small textual provenance query language, a first step toward the
// distributed ProQL variant the paper lists as ongoing work:
//
//	lineage of mincost(@'n1','n3',2)
//	count   of mincost(@'n1','n4',2) at 'n1' with cache, threshold 2, dfs
//
// Its grammar is in docs/API.md ("The provenance query language");
// TestGrammarDocumented holds that grammar to the keyword tables below.
// A query is read as NDlog tokens: a keyword is an identifier or
// variable token, compared case-insensitively, the tuple is an NDlog
// fact read by ndlog's parser, and any token left over is an error.

// ParsedQuery is the outcome of ParseQuery.
type ParsedQuery struct {
	Type  QueryType
	Tuple rel.Tuple
	// At is the node to query at; empty means the tuple's location.
	At   string
	Opts Options
}

// queryTypes is the query-type keyword table, aliases included.
var queryTypes = map[string]QueryType{
	"lineage":     Lineage,
	"bases":       BaseTuples,
	"basetuples":  BaseTuples,
	"nodes":       Nodes,
	"count":       DerivCount,
	"derivations": DerivCount,
}

// queryOption is one entry of the with clause's keyword table. Its
// first word names it in errors; an option with an INT argument sets
// its field from a positive value.
type queryOption struct {
	words  []string
	hasArg bool
	set    func(o *Options, n int)
}

var queryOptions = []queryOption{
	{[]string{"cache", "cached", "caching"}, false, func(o *Options, _ int) { o.UseCache = true }},
	{[]string{"dfs", "sequential"}, false, func(o *Options, _ int) { o.Sequential = true }},
	{[]string{"bfs", "parallel"}, false, func(o *Options, _ int) { o.Sequential = false }},
	{[]string{"threshold", "prune"}, true, func(o *Options, n int) { o.Threshold = n }},
	{[]string{"maxdepth", "max-depth"}, true, func(o *Options, n int) { o.MaxDepth = n }},
	{[]string{"maxnodes", "max-nodes"}, true, func(o *Options, n int) { o.MaxNodes = n }},
}

// ParseQueryType resolves a query-type keyword (with its aliases,
// case-insensitively) to a QueryType. It is the single name table for
// both the textual grammar and structured API requests.
func ParseQueryType(word string) (QueryType, error) {
	if t, ok := queryTypes[strings.ToLower(word)]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("provquery: unknown query type %q (want lineage/bases/nodes/count)", word)
}

// ParseQuery parses a textual provenance query.
func ParseQuery(src string) (*ParsedQuery, error) {
	p := ndlog.NewParser(src)
	q, err := parseQuery(p)
	if lexErr := p.Err(); lexErr != nil {
		return nil, fmt.Errorf("provquery: %v", lexErr)
	}
	return q, err
}

func parseQuery(p *ndlog.Parser) (*ParsedQuery, error) {
	if p.Tok().Kind == ndlog.TokEOF {
		return nil, fmt.Errorf("provquery: empty query")
	}
	typ, err := ParseQueryType(word(p.Tok()))
	if err != nil {
		return nil, err
	}
	p.Next()
	if !strings.EqualFold(word(p.Tok()), "of") {
		return nil, fmt.Errorf("provquery: expected 'of' after query type")
	}
	p.Next()
	t, err := p.Fact()
	if err != nil {
		return nil, fmt.Errorf("provquery: bad tuple literal: %v", err)
	}
	q := &ParsedQuery{Type: typ, Tuple: t}
	if strings.EqualFold(word(p.Tok()), "at") {
		p.Next()
		switch tok := p.Tok(); tok.Kind {
		case ndlog.TokIdent, ndlog.TokVariable, ndlog.TokInt, ndlog.TokAddr, ndlog.TokString:
			q.At = tok.Text
			p.Next()
		default:
			return nil, fmt.Errorf("provquery: expected node after 'at'")
		}
	}
	if strings.EqualFold(word(p.Tok()), "with") {
		for {
			p.Next()
			if err := parseOpt(p, &q.Opts); err != nil {
				return nil, err
			}
			if p.Tok().Kind != ndlog.TokComma {
				break
			}
		}
	}
	if p.Tok().Kind != ndlog.TokEOF {
		return nil, fmt.Errorf("provquery: unexpected token %q", word(p.Tok()))
	}
	if q.At, err = QueryAt(q.Tuple, q.At); err != nil {
		return nil, err
	}
	return q, nil
}

// QueryAt resolves the node a query of t starts at: at when it is set,
// else t's location attribute. It is the location rule of both query
// forms, the textual and the structured.
func QueryAt(t rel.Tuple, at string) (string, error) {
	if at != "" {
		return at, nil
	}
	if loc, ok := t.LocCol0(); ok && loc != "" {
		return loc, nil
	}
	return "", fmt.Errorf("provquery: tuple has no location attribute; name the node to query at")
}

// parseOpt reads one option of the with clause into o.
func parseOpt(p *ndlog.Parser, o *Options) error {
	if k := p.Tok().Kind; k == ndlog.TokEOF || k == ndlog.TokComma {
		return fmt.Errorf("provquery: expected option after 'with' or ','")
	}
	name := word(p.Tok())
	p.Next()
	// A hyphenated alias (max-depth) is three tokens.
	if p.Tok().Kind == ndlog.TokMinus && optionIndex(name) < 0 {
		p.Next()
		name += "-" + word(p.Tok())
		p.Next()
	}
	i := optionIndex(name)
	if i < 0 {
		return fmt.Errorf("provquery: unknown option %q", name)
	}
	opt := queryOptions[i]
	n := 0
	if opt.hasArg {
		arg := word(p.Tok())
		switch p.Tok().Kind {
		case ndlog.TokEOF, ndlog.TokComma:
			return fmt.Errorf("provquery: %s needs a value", opt.words[0])
		case ndlog.TokMinus:
			p.Next()
			arg += word(p.Tok())
		}
		p.Next()
		var err error
		if n, err = strconv.Atoi(arg); err != nil || n < 1 {
			return fmt.Errorf("provquery: bad %s %q", opt.words[0], arg)
		}
	}
	opt.set(o, n)
	return nil
}

func optionIndex(name string) int {
	return slices.IndexFunc(queryOptions, func(o queryOption) bool { return slices.Contains(o.words, strings.ToLower(name)) })
}

// word renders a token as query text, for keyword lookup and error
// messages. A quoted token keeps its quotes, so it never matches a
// keyword or an integer.
func word(t ndlog.Token) string {
	switch t.Kind {
	case ndlog.TokEOF:
		return ""
	case ndlog.TokString:
		return `"` + t.Text + `"`
	case ndlog.TokAddr:
		return "'" + t.Text + "'"
	case ndlog.TokIdent, ndlog.TokVariable, ndlog.TokInt, ndlog.TokFloat:
		return t.Text
	}
	return t.Kind.String()
}

// ParseTupleLiteral parses an NDlog fact literal such as
// mincost(@'n1','n3',2) into a tuple (addresses in single quotes,
// strings in double quotes) — the tuple syntax of the query language.
func ParseTupleLiteral(src string) (rel.Tuple, error) {
	p := ndlog.NewParser(src)
	t, err := p.Fact()
	if err == nil && p.Tok().Kind != ndlog.TokEOF {
		err = fmt.Errorf("unexpected token %q after the fact", word(p.Tok()))
	}
	if err != nil {
		return rel.Tuple{}, fmt.Errorf("provquery: bad tuple literal %q: %v", src, err)
	}
	return t, nil
}

// Run parses and executes a textual query.
func (c *Client) Run(src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return c.Query(q.Type, q.At, q.Tuple, q.Opts)
}
