package provgraph

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/provenance"
	"repro/internal/rel"
)

// fakeSource is an in-memory multi-node provenance graph with
// synchronous hops, for exercising the walk without an engine. It
// records hop and cache traffic so tests can assert on the walk's
// interaction with its Source.
type fakeSource struct {
	tuples map[string]map[rel.ID]rel.Tuple
	derivs map[string]map[rel.ID][]provenance.Entry
	execs  map[string]map[rel.ID]provenance.ExecEntry

	hops    int
	cache   map[string]map[CacheKey]SubResult
	gets    int
	hits    int
	puts    int
	noCache bool // CacheGet always misses, CachePut drops
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		tuples: map[string]map[rel.ID]rel.Tuple{},
		derivs: map[string]map[rel.ID][]provenance.Entry{},
		execs:  map[string]map[rel.ID]provenance.ExecEntry{},
		cache:  map[string]map[CacheKey]SubResult{},
	}
}

func (f *fakeSource) node(loc string) {
	if f.tuples[loc] == nil {
		f.tuples[loc] = map[rel.ID]rel.Tuple{}
		f.derivs[loc] = map[rel.ID][]provenance.Entry{}
		f.execs[loc] = map[rel.ID]provenance.ExecEntry{}
		f.cache[loc] = map[CacheKey]SubResult{}
	}
}

// base registers a base tuple at loc and returns its VID.
func (f *fakeSource) base(loc, name string) rel.ID {
	f.node(loc)
	t := rel.NewTuple(name, rel.Addr(loc))
	vid := t.VID()
	f.tuples[loc][vid] = t
	f.derivs[loc][vid] = append(f.derivs[loc][vid], provenance.Entry{VID: vid})
	return vid
}

// derived registers a tuple at loc derived by a rule executed at rloc
// over the input VIDs (which must be registered at rloc), and returns
// the new tuple's VID.
func (f *fakeSource) derived(loc, name, rule, rloc string, inputs ...rel.ID) rel.ID {
	f.node(loc)
	f.node(rloc)
	t := rel.NewTuple(name, rel.Addr(loc))
	vid := t.VID()
	f.tuples[loc][vid] = t
	rid := rel.HashParts([]byte(rule), []byte(rloc), vid[:])
	f.derivs[loc][vid] = append(f.derivs[loc][vid], provenance.Entry{VID: vid, RID: rid, RLoc: rloc})
	f.execs[rloc][rid] = provenance.ExecEntry{RID: rid, Rule: rule, VIDs: inputs}
	return vid
}

func (f *fakeSource) TupleOf(loc string, vid rel.ID) (rel.Tuple, bool) {
	t, ok := f.tuples[loc][vid]
	return t, ok
}

func (f *fakeSource) Derivations(loc string, vid rel.ID) ([]provenance.Entry, bool) {
	d, ok := f.derivs[loc][vid]
	return d, ok
}

func (f *fakeSource) Exec(loc string, rid rel.ID) (provenance.ExecEntry, bool) {
	e, ok := f.execs[loc][rid]
	return e, ok
}

func (f *fakeSource) Cross(h *Hop) {
	if !h.Back() {
		f.hops++
	}
	h.Resume()
}

func (f *fakeSource) Err() error { return nil }

func (f *fakeSource) CacheGet(loc string, key CacheKey) (SubResult, bool) {
	f.gets++
	if f.noCache {
		return SubResult{}, false
	}
	r, ok := f.cache[loc][key]
	if ok {
		f.hits++
	}
	return r, ok
}

func (f *fakeSource) CachePut(loc string, key CacheKey, res SubResult) {
	f.puts++
	if f.noCache {
		return
	}
	f.cache[loc][key] = res
}

// chain builds a cross-node derivation chain of the given length:
// d_n@n_n <- ... <- d_1@n_1 <- base@n_0, each rule executing at the
// derived tuple's own node over the previous node's tuple. Returns the
// top VID and its location.
func chain(f *fakeSource, length int) (rel.ID, string) {
	vid := f.base("h0", "b")
	loc := "h0"
	for i := 1; i <= length; i++ {
		at := fmt.Sprintf("h%d", i)
		// The rule executes at the previous hop (where its input lives)
		// and the derived tuple lands one node further, so every level
		// costs one remote expansion.
		vid = f.derived(at, fmt.Sprintf("d%d", i), fmt.Sprintf("r%d", i), loc, vid)
		loc = at
	}
	return vid, loc
}

func run(t *testing.T, w *Walk, loc string, vid rel.ID) SubResult {
	t.Helper()
	w.Start(loc, vid)
	if !w.Done() {
		t.Fatal("walk did not complete synchronously")
	}
	return w.Out()
}

func TestWalkLineageChain(t *testing.T) {
	f := newFakeSource()
	vid, loc := chain(f, 3)
	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{}), loc, vid)
	res := NewResult(Lineage, out)
	if res.Root == nil || res.Root.Size() != 4 {
		t.Fatalf("expected 4-vertex proof, got %+v", res.Root)
	}
	if res.Root.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", res.Root.Depth())
	}
	if f.hops != 3 {
		t.Fatalf("remote hops = %d, want 3", f.hops)
	}
	if res.Truncated || res.Pruned {
		t.Fatalf("unexpected truncation/pruning: %+v", res)
	}
}

func TestWalkBasesNodesCount(t *testing.T) {
	f := newFakeSource()
	// Two alternative derivations of top@a: via m1@b and via m2@c, each
	// over the same base@a.
	base := f.base("a", "ground")
	m1 := f.derived("b", "m1", "rb", "a", base)
	m2 := f.derived("c", "m2", "rc", "a", base)
	top := f.derived("a", "top", "ra1", "b", m1)
	tt := f.tuples["a"][top]
	rid2 := rel.HashParts([]byte("ra2"), []byte("c"), top[:])
	f.derivs["a"][top] = append(f.derivs["a"][top], provenance.Entry{VID: top, RID: rid2, RLoc: "c"})
	f.execs["c"][rid2] = provenance.ExecEntry{RID: rid2, Rule: "ra2", VIDs: []rel.ID{m2}}
	_ = tt

	out := run(t, NewWalkContext(context.Background(), f, DerivCount, Options{}), "a", top)
	if out.Count != 2 {
		t.Fatalf("count = %d, want 2", out.Count)
	}
	out = run(t, NewWalkContext(context.Background(), f, BaseTuples, Options{}), "a", top)
	bases := DedupBases(out.Bases)
	if len(bases) != 1 || bases[0].Tuple.Rel != "ground" {
		t.Fatalf("bases = %v", bases)
	}
	res := NewResult(Nodes, run(t, NewWalkContext(context.Background(), f, Nodes, Options{}), "a", top))
	if got := fmt.Sprint(res.Nodes); got != "[a b c]" {
		t.Fatalf("nodes = %s, want [a b c]", got)
	}
}

func TestWalkThresholdPrunes(t *testing.T) {
	f := newFakeSource()
	base := f.base("a", "ground")
	top := f.derived("a", "top", "r1", "a", base)
	rid2 := rel.HashParts([]byte("r2"), []byte("a"), top[:])
	f.derivs["a"][top] = append(f.derivs["a"][top], provenance.Entry{VID: top, RID: rid2, RLoc: "a"})
	f.execs["a"][rid2] = provenance.ExecEntry{RID: rid2, Rule: "r2", VIDs: []rel.ID{base}}

	out := run(t, NewWalkContext(context.Background(), f, DerivCount, Options{Threshold: 1}), "a", top)
	if out.Count != 1 || !out.Pruned {
		t.Fatalf("threshold run = count %d pruned %v, want 1/true", out.Count, out.Pruned)
	}
}

func TestWalkCycleDetection(t *testing.T) {
	f := newFakeSource()
	// a <- b <- a: manufacture a two-tuple cycle.
	ta := rel.NewTuple("ca", rel.Addr("a"))
	tb := rel.NewTuple("cb", rel.Addr("a"))
	va, vb := ta.VID(), tb.VID()
	f.node("a")
	f.tuples["a"][va], f.tuples["a"][vb] = ta, tb
	ra := rel.HashParts([]byte("ra"), va[:])
	rb := rel.HashParts([]byte("rb"), vb[:])
	f.derivs["a"][va] = []provenance.Entry{{VID: va, RID: ra, RLoc: "a"}}
	f.derivs["a"][vb] = []provenance.Entry{{VID: vb, RID: rb, RLoc: "a"}}
	f.execs["a"][ra] = provenance.ExecEntry{RID: ra, Rule: "ra", VIDs: []rel.ID{vb}}
	f.execs["a"][rb] = provenance.ExecEntry{RID: rb, Rule: "rb", VIDs: []rel.ID{va}}

	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{}), "a", va)
	leaf := out.Node.Derivs[0].Children[0].Derivs[0].Children[0]
	if leaf.VID != va || !leaf.Cycle {
		t.Fatalf("expected cycle leaf back at the root tuple, got %+v", leaf)
	}
	if out.Count != 0 {
		t.Fatalf("a pure cycle has no finite derivation, count = %d", out.Count)
	}
}

func TestWalkMaxDepthTruncates(t *testing.T) {
	f := newFakeSource()
	vid, loc := chain(f, 5)
	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{MaxDepth: 2}), loc, vid)
	if !out.Truncated {
		t.Fatal("expected Truncated")
	}
	if got := out.Node.Depth(); got != 3 { // 2 expanded levels + truncated frontier vertex
		t.Fatalf("depth = %d, want 3", got)
	}
	frontier := out.Node.Derivs[0].Children[0].Derivs[0].Children[0]
	if !frontier.Truncated || len(frontier.Derivs) != 0 {
		t.Fatalf("frontier not truncated: %+v", frontier)
	}
	if frontier.Tuple.Rel == "" {
		t.Fatal("truncated vertex should still carry its tuple for display")
	}
	// Unlimited walk on the same graph is not truncated.
	if out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{}), loc, vid); out.Truncated {
		t.Fatal("unlimited walk reported truncation")
	}
}

func TestWalkMaxNodesTruncates(t *testing.T) {
	f := newFakeSource()
	vid, loc := chain(f, 5)
	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{MaxNodes: 3, Sequential: true}), loc, vid)
	if !out.Truncated {
		t.Fatal("expected Truncated")
	}
	if got := out.Node.Size(); got != 4 { // 3 resolved + 1 truncated frontier vertex
		t.Fatalf("size = %d, want 4", got)
	}
	if out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{MaxNodes: 100}), loc, vid); out.Truncated {
		t.Fatal("generous budget reported truncation")
	}
}

func TestWalkCacheHooks(t *testing.T) {
	f := newFakeSource()
	// Two derivations of top share the sub-proof of mid: with UseCache
	// the second expansion must be served from the cache.
	base := f.base("a", "ground")
	mid := f.derived("a", "mid", "rm", "a", base)
	top := f.derived("a", "top", "r1", "a", mid)
	rid2 := rel.HashParts([]byte("r2"), top[:])
	f.derivs["a"][top] = append(f.derivs["a"][top], provenance.Entry{VID: top, RID: rid2, RLoc: "a"})
	f.execs["a"][rid2] = provenance.ExecEntry{RID: rid2, Rule: "r2", VIDs: []rel.ID{mid}}

	out := run(t, NewWalkContext(context.Background(), f, DerivCount, Options{UseCache: true}), "a", top)
	if out.Count != 2 {
		t.Fatalf("count = %d, want 2", out.Count)
	}
	if f.hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (shared mid sub-proof)", f.hits)
	}

	// With a traversal limit set the cache must be bypassed entirely.
	f.gets, f.puts = 0, 0
	_ = run(t, NewWalkContext(context.Background(), f, DerivCount, Options{UseCache: true, MaxDepth: 10}), "a", top)
	if f.gets != 0 || f.puts != 0 {
		t.Fatalf("limited walk touched the cache: %d gets, %d puts", f.gets, f.puts)
	}
}

func TestWalkMissingVertex(t *testing.T) {
	f := newFakeSource()
	f.node("a")
	var ghost rel.ID
	ghost[0] = 0xff
	out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{}), "a", ghost)
	if out.Node == nil || out.Node.VID != ghost || out.Count != 0 {
		t.Fatalf("missing vertex result = %+v", out)
	}
}

// layered builds a graph in which every derived tuple has two
// derivations, one executed at its own node and one at the next node,
// each over the two tuples of the layer below at that node. It returns
// a top tuple and its node.
func layered(f *fakeSource, levels int) (rel.ID, string) {
	locs := []string{"a", "b", "c"}
	below := map[string][]rel.ID{}
	for i, loc := range locs {
		below[loc] = []rel.ID{f.base(loc, fmt.Sprintf("g%d", 2*i)), f.base(loc, fmt.Sprintf("g%d", 2*i+1))}
	}
	for l := 1; l <= levels; l++ {
		layer := map[string][]rel.ID{}
		for i, loc := range locs {
			next := locs[(i+1)%len(locs)]
			for k := 0; k < 2; k++ {
				vid := f.derived(loc, fmt.Sprintf("t%d_%d", l, k), fmt.Sprintf("r%d", l), loc, below[loc]...)
				rid := rel.HashParts([]byte("alt"), []byte(next), vid[:])
				f.derivs[loc][vid] = append(f.derivs[loc][vid], provenance.Entry{VID: vid, RID: rid, RLoc: next})
				f.execs[next][rid] = provenance.ExecEntry{RID: rid, Rule: "alt", VIDs: below[next]}
				layer[loc] = append(layer[loc], vid)
			}
		}
		below = layer
	}
	return below["a"][0], "a"
}

// shape renders a proof's structure: vertices with their cycle (@) and
// truncation (!) marks, derivations with their inputs, in order.
func shape(p *ProofNode) string {
	s := p.VID.Short()
	if p.Cycle {
		s += "@"
	}
	if p.Truncated {
		s += "!"
	}
	for _, d := range p.Derivs {
		s += "(" + d.RID.Short() + ":"
		for _, c := range d.Children {
			s += " " + shape(c)
		}
		s += ")"
	}
	return s
}

// reference is the walk's semantics as plain recursion in derivation
// and input order, spending a MaxNodes budget as it goes: the order a
// source that resumes every hop at once must visit in, concurrent or
// Sequential.
func reference(f *fakeSource, loc string, vid rel.ID, path []rel.ID, budget *int) string {
	s := vid.Short()
	for _, seen := range path {
		if seen == vid {
			return s + "@"
		}
	}
	if *budget == 0 {
		return s + "!"
	}
	*budget--
	for _, d := range f.derivs[loc][vid] {
		if e, ok := f.execs[d.RLoc][d.RID]; ok && !d.RID.IsZero() {
			s += "(" + d.RID.Short() + ":"
			for _, in := range e.VIDs {
				s += " " + reference(f, d.RLoc, in, append(path[:len(path):len(path)], vid), budget)
			}
			s += ")"
		}
	}
	return s
}

// TestWalkMaxNodesFrontierMatchesReference pins the visit order: under
// every budget the truncation frontier is the one the plain recursion
// reaches, so issuing siblings in any other order fails here.
func TestWalkMaxNodesFrontierMatchesReference(t *testing.T) {
	f := newFakeSource()
	vid, loc := layered(f, 3)
	for budget := 1; budget <= 90; budget++ {
		for _, seq := range []bool{false, true} {
			out := run(t, NewWalkContext(context.Background(), f, Lineage, Options{MaxNodes: budget, Sequential: seq}), loc, vid)
			left := budget
			if got, want := shape(out.Node), reference(f, loc, vid, nil, &left); got != want {
				t.Fatalf("maxnodes %d (sequential %v):\nwalk      %s\nreference %s", budget, seq, got, want)
			}
		}
	}
}
