package provquery

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ndlog"
	"repro/internal/rel"
)

// A small textual provenance query language, a first step toward the
// distributed ProQL variant the paper lists as ongoing work. Queries
// name a query type, a tuple pattern, and optional execution knobs:
//
//	lineage of mincost(@'n1','n3',2)
//	bases   of mincost(@'n1','n3',2) at 'n1'
//	nodes   of routeEntry(@'AS3',"10.0.0.0/24")
//	count   of mincost(@'n1','n4',2) with cache, threshold 2, dfs
//	lineage of mincost(@'n1','n9',4) with maxdepth 3, maxnodes 50
//
// Grammar:
//
//	query   := type "of" tuple [ "at" addr ] [ "with" opt { "," opt } ]
//	type    := "lineage" | "bases" | "nodes" | "count"
//	tuple   := NDlog fact literal (addresses in single quotes)
//	opt     := "cache" | "dfs" | "threshold" INT
//	         | "maxdepth" INT | "maxnodes" INT
//
// maxdepth bounds the derivation chain below the queried tuple;
// maxnodes bounds the total tuple vertices resolved. Either limit
// leaves unexplored structure marked Truncated in the result.

// ParsedQuery is the outcome of ParseQuery.
type ParsedQuery struct {
	Type  QueryType
	Tuple rel.Tuple
	// At is the node to query at; empty means the tuple's location.
	At   string
	Opts Options
}

// ParseQueryType resolves a query-type keyword (with its aliases,
// case-insensitively) to a QueryType. It is the single name table for
// both the textual grammar and structured API requests.
func ParseQueryType(word string) (QueryType, error) {
	switch strings.ToLower(word) {
	case "lineage":
		return Lineage, nil
	case "bases", "basetuples":
		return BaseTuples, nil
	case "nodes":
		return Nodes, nil
	case "count", "derivations":
		return DerivCount, nil
	}
	return 0, fmt.Errorf("provquery: unknown query type %q (want lineage/bases/nodes/count)", word)
}

// ParseQuery parses a textual provenance query.
func ParseQuery(src string) (*ParsedQuery, error) {
	s := strings.TrimSpace(src)
	typWord, rest, ok := cutWord(s)
	if !ok {
		return nil, fmt.Errorf("provquery: empty query")
	}
	q := &ParsedQuery{}
	typ, err := ParseQueryType(typWord)
	if err != nil {
		return nil, err
	}
	q.Type = typ
	ofWord, rest, ok := cutWord(rest)
	if !ok || strings.ToLower(ofWord) != "of" {
		return nil, fmt.Errorf("provquery: expected 'of' after query type")
	}
	// The tuple literal ends at the matching close paren.
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return nil, fmt.Errorf("provquery: expected tuple literal, got %q", rest)
	}
	depth := 0
	end := -1
	inStr := byte(0)
	for i := open; i < len(rest); i++ {
		c := rest[i]
		if inStr != 0 {
			if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inStr = c
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				end = i
			}
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return nil, fmt.Errorf("provquery: unterminated tuple literal in %q", src)
	}
	tupleLit := strings.TrimSpace(rest[:end+1])
	tail := strings.TrimSpace(rest[end+1:])
	t, err := ParseTupleLiteral(tupleLit)
	if err != nil {
		return nil, err
	}
	q.Tuple = t

	for tail != "" {
		word, rest2, _ := cutWord(tail)
		switch strings.ToLower(word) {
		case "at":
			addr, rest3, ok := cutWord(rest2)
			if !ok {
				return nil, fmt.Errorf("provquery: expected node after 'at'")
			}
			q.At = strings.Trim(addr, "'\"")
			tail = rest3
		case "with":
			opts, err := parseOpts(rest2)
			if err != nil {
				return nil, err
			}
			q.Opts = opts
			tail = ""
		default:
			return nil, fmt.Errorf("provquery: unexpected token %q", word)
		}
	}
	if q.At == "" {
		loc, ok := q.Tuple.LocCol0()
		if !ok || loc == "" {
			return nil, fmt.Errorf("provquery: tuple has no location attribute; add 'at NODE'")
		}
		q.At = loc
	}
	return q, nil
}

func cutWord(s string) (word, rest string, ok bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", false
	}
	i := strings.IndexAny(s, " \t\n")
	if i < 0 {
		return s, "", true
	}
	return s[:i], strings.TrimSpace(s[i:]), true
}

func parseOpts(s string) (Options, error) {
	var o Options
	for _, part := range strings.Split(s, ",") {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToLower(fields[0]) {
		case "cache", "cached", "caching":
			o.UseCache = true
		case "dfs", "sequential":
			o.Sequential = true
		case "bfs", "parallel":
			o.Sequential = false
		case "threshold", "prune":
			n, err := optInt("threshold", fields)
			if err != nil {
				return o, err
			}
			o.Threshold = n
		case "maxdepth", "max-depth":
			n, err := optInt("maxdepth", fields)
			if err != nil {
				return o, err
			}
			o.MaxDepth = n
		case "maxnodes", "max-nodes":
			n, err := optInt("maxnodes", fields)
			if err != nil {
				return o, err
			}
			o.MaxNodes = n
		default:
			return o, fmt.Errorf("provquery: unknown option %q", fields[0])
		}
	}
	return o, nil
}

// optInt parses the single positive integer argument of an option.
func optInt(name string, fields []string) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("provquery: %s needs a value", name)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("provquery: bad %s %q", name, fields[1])
	}
	return n, nil
}

// ParseTupleLiteral parses an NDlog fact literal such as
// mincost(@'n1','n3',2) into a tuple (addresses in single quotes,
// strings in double quotes) — the tuple syntax of the query language.
func ParseTupleLiteral(src string) (rel.Tuple, error) {
	// The literal must name its relation: without this check an input
	// like ('x') would parse as a fact of the synthetic label below.
	if i := strings.IndexByte(src, '('); i <= 0 || strings.TrimSpace(src[:i]) == "" {
		return rel.Tuple{}, fmt.Errorf("provquery: %q is not a fact literal", src)
	}
	prog, err := ndlog.Parse("q " + src + ".")
	if err != nil {
		return rel.Tuple{}, fmt.Errorf("provquery: bad tuple literal %q: %v", src, err)
	}
	if len(prog.Rules) != 1 || len(prog.Rules[0].Body) != 0 {
		return rel.Tuple{}, fmt.Errorf("provquery: %q is not a fact literal", src)
	}
	head := prog.Rules[0].Head
	vals := make([]rel.Value, len(head.Args))
	for i, a := range head.Args {
		c, ok := a.(*ndlog.ConstArg)
		if !ok {
			return rel.Tuple{}, fmt.Errorf("provquery: tuple literal %q has non-constant argument", src)
		}
		vals[i] = c.Val
	}
	return rel.Tuple{Rel: head.Rel, Vals: vals}, nil
}

// Run parses and executes a textual query.
func (c *Client) Run(src string) (*Result, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return c.Query(q.Type, q.At, q.Tuple, q.Opts)
}
