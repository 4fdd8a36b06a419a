package provquery

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseQueryBasics(t *testing.T) {
	q, err := ParseQuery("lineage of mincost(@'n1','n3',2)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Lineage || q.At != "n1" {
		t.Fatalf("q = %+v", q)
	}
	if q.Tuple.String() != "mincost(@n1, n3, 2)" {
		t.Fatalf("tuple = %s", q.Tuple)
	}
}

func TestParseQueryTypesAndAliases(t *testing.T) {
	cases := map[string]QueryType{
		"lineage":     Lineage,
		"bases":       BaseTuples,
		"baseTuples":  BaseTuples,
		"nodes":       Nodes,
		"count":       DerivCount,
		"derivations": DerivCount,
	}
	for word, want := range cases {
		q, err := ParseQuery(word + " of link(@'a','b',1)")
		if err != nil {
			t.Fatalf("%s: %v", word, err)
		}
		if q.Type != want {
			t.Fatalf("%s parsed as %v", word, q.Type)
		}
	}
}

func TestParseQueryAtAndOptions(t *testing.T) {
	q, err := ParseQuery("count of mincost(@'n1','n4',2) at 'n2' with cache, threshold 3, dfs")
	if err != nil {
		t.Fatal(err)
	}
	if q.At != "n2" {
		t.Fatalf("at = %q", q.At)
	}
	if !q.Opts.UseCache || !q.Opts.Sequential || q.Opts.Threshold != 3 {
		t.Fatalf("opts = %+v", q.Opts)
	}
	// bfs resets sequential.
	q, err = ParseQuery("count of x(@'a') with dfs, bfs")
	if err != nil {
		t.Fatal(err)
	}
	if q.Opts.Sequential {
		t.Fatal("bfs should clear sequential")
	}
}

func TestParseQueryTraversalLimits(t *testing.T) {
	q, err := ParseQuery("lineage of mincost(@'n1','n9',4) with maxdepth 3, maxnodes 50")
	if err != nil {
		t.Fatal(err)
	}
	if q.Opts.MaxDepth != 3 || q.Opts.MaxNodes != 50 {
		t.Fatalf("opts = %+v", q.Opts)
	}
	for _, src := range []string{
		"lineage of x(@'a') with maxdepth",
		"lineage of x(@'a') with maxdepth 0",
		"lineage of x(@'a') with maxdepth -1",
		"lineage of x(@'a') with maxnodes many",
	} {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

func TestParseQueryStringsWithParens(t *testing.T) {
	q, err := ParseQuery(`nodes of routeEntry(@'AS3',"10.0.0.0/24 (test)")`)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := q.Tuple.Vals[1].AsString(); s != "10.0.0.0/24 (test)" {
		t.Fatalf("string arg = %q", s)
	}
}

func TestParseQueryErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate of x(@'a')",
		"lineage x(@'a')",
		"lineage of",
		"lineage of x(@'a'",
		"lineage of x(@'a') banana",
		"lineage of x(@'a') at",
		"lineage of x(@'a') with warp",
		"lineage of x(@'a') with threshold",
		"lineage of x(@'a') with threshold zero",
		"lineage of x(@'a') with threshold 0",
		"lineage of x(X)",
		`lineage of x("a")`,
		"lineage of ('a')",   // fact literal without a relation name
		"lineage of x(@'')",  // empty location resolves to no node
		"lineage of  (@'a')", // leading paren, no relation
	}
	for _, src := range bad {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) should fail", src)
		}
	}
}

// TestParseRegressions holds one case per defect of the reader that
// scanned query text by hand and wrapped a tuple literal as a one-rule
// program; each case failed or misparsed there.
func TestParseRegressions(t *testing.T) {
	// An escaped quote ended the string for the hand scanner, which
	// then found no closing paren.
	q, err := ParseQuery(`lineage of r(@'n1',"a\"b")`)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := q.Tuple.Vals[1].AsString(); s != `a"b` {
		t.Fatalf("string arg = %q", s)
	}
	for _, c := range []struct{ src, wantErr string }{
		// Words after an option were dropped: an at clause, a second
		// option without its comma, plain junk.
		{"lineage of x(@'n1') with dfs at 'n2'", `unexpected token "at"`},
		{"lineage of x(@'n1') with dfs maxdepth 3", `unexpected token "maxdepth"`},
		{"lineage of x(@'n1') with cache garbage here", `unexpected token "garbage"`},
		// Mismatched quotes around the node were trimmed away.
		{`lineage of x(@'n1') at 'n2"`, "unterminated string"},
		// Literal errors name the query's own column.
		{"lineage of r(@'n1',true)", "line 1:20:"},
	} {
		if _, err := ParseQuery(c.src); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseQuery(%q) = %v, want an error containing %q", c.src, err, c.wantErr)
		}
	}
	for _, c := range []struct{ lit, wantErr string }{
		// The "q " wrapper put positions two columns late; booleans
		// are not NDlog literals, whatever the docs once said.
		{"r(@'n1',true)", `line 1:9: unexpected identifier "true"`},
		// Trailing junk was reported as a rule missing ':-', '?-' or '.'.
		{"r(@'n1') junk", `unexpected token "junk" after the fact`},
	} {
		if _, err := ParseTupleLiteral(c.lit); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseTupleLiteral(%q) = %v, want an error containing %q", c.lit, err, c.wantErr)
		}
	}
}

// TestGrammarDocumented holds docs/API.md's query grammar to the
// parser's keyword tables: the quoted words of the grammar block are
// exactly the structural keywords, the query types and the options,
// and every query of the Examples block parses.
func TestGrammarDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	section = section[strings.Index(section, "## The provenance query language"):]
	block := func(heading string) string {
		s := section[strings.Index(section, heading):]
		s = s[strings.Index(s, "```\n")+4:]
		return s[:strings.Index(s, "```")]
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`"([a-z-]+)"`).FindAllStringSubmatch(block("### Grammar"), -1) {
		documented[m[1]] = true
	}
	tables := map[string]bool{"of": true, "at": true, "with": true}
	for w := range queryTypes {
		tables[w] = true
	}
	for _, opt := range queryOptions {
		for _, w := range opt.words {
			tables[w] = true
		}
	}
	for w := range tables {
		if !documented[w] {
			t.Errorf("keyword %q is not in docs/API.md's grammar", w)
		}
	}
	for w := range documented {
		if !tables[w] {
			t.Errorf("docs/API.md's grammar has %q, which the parser does not accept", w)
		}
	}
	examples := strings.Split(strings.TrimSpace(block("### Examples")), "\n")
	for _, src := range examples {
		if _, err := ParseQuery(src); err != nil {
			t.Errorf("documented example %q: %v", src, err)
		}
	}
	if len(examples) < 5 {
		t.Fatalf("found %d examples; is the Examples block still there?", len(examples))
	}
}

func TestRunTextQuery(t *testing.T) {
	_, c := buildLine(t, 3)
	res, err := c.Run("bases of mincost(@'n1','n3',2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bases) == 0 {
		t.Fatal("no bases")
	}
	res, err = c.Run("count of mincost(@'n1','n3',2) with cache")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count = %d", res.Count)
	}
	if _, err := c.Run("count of ghost(@'n1')"); err == nil {
		t.Fatal("unknown tuple must error")
	}
	if _, err := c.Run("nonsense"); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestQueryTypeString(t *testing.T) {
	for typ, want := range map[QueryType]string{
		Lineage: "lineage", BaseTuples: "base-tuples", Nodes: "nodes",
		DerivCount: "deriv-count", QueryType(99): "unknown",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if !strings.Contains(Lineage.String(), "lineage") {
		t.Fatal("sanity")
	}
}
