package provquery

import "testing"

// FuzzParseQuery hammers the provenance query-language parser (and,
// through its tuple literals, the NDlog fact parser) with arbitrary
// input. The invariants are: ParseQuery never panics, an accepted
// query always resolves a target node, and rendering its tuple never
// panics. (The rendered tuple is display form, not source form, so it
// is not asserted to re-parse.) When the input is a literal that
// ParseTupleLiteral accepts, every "<type> of <literal>" query must
// read the same tuple: the two entry points share one fact reader.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"lineage of mincost(@'n1','n3',2)",
		"bases   of mincost(@'n1','n3',2) at 'n1'",
		`nodes   of routeEntry(@'AS3',"10.0.0.0/24")`,
		"count   of mincost(@'n1','n4',2) with cache, threshold 2, dfs",
		"lineage of mincost(@'n1','n9',4) with maxdepth 3, maxnodes 50",
		"count of x(@'a') with dfs, bfs",
		`nodes of routeEntry(@'AS3',"10.0.0.0/24 (test)")`,
		"baseTuples of link(@'a','b',1)",
		"derivations of link(@'a','b',1) at n2",
		"lineage of x(@'a'",
		"lineage of x(X)",
		"lineage of x(@'a') with threshold 0",
		"",
		"lineage of",
		"lineage of x(@'a') with max-depth 2, max-nodes 9, prune 1",
		`r(@'n1',"a\"b")`,
		`r(@'n1',"a)b")`,
		"r(@'n1') // a comment",
		"r(@'n1',[1,[2,3]])",
		"r(@'n1',-3,2.5,-0.5)",
		"mincost(@'n1','n3',2)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if lit, err := ParseTupleLiteral(src); err == nil {
			loc, _ := lit.LocCol0()
			for word := range queryTypes {
				q, err := ParseQuery(word + " of " + src)
				switch {
				case err != nil && loc != "":
					t.Fatalf("literal %q parses, but %q fails: %v", src, word+" of "+src, err)
				case err == nil && (q.Tuple.Rel != lit.Rel || !q.Tuple.Equal(lit)):
					t.Fatalf("%q reads %v, the literal alone %v", word+" of "+src, q.Tuple, lit)
				}
			}
		}
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		if q.At == "" {
			t.Fatalf("accepted query %q has no target node", src)
		}
		_ = q.Tuple.String()
	})
}
