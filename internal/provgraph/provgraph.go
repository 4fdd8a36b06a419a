// Package provgraph is the single traversal core of the provenance
// query engine: one walk over the distributed provenance graph G(V,E),
// shared by every evaluation mode. The walk keeps an explicit stack of
// frames, one per tuple vertex and one per rule execution, and is
// parameterized by a Source, so the same merge/cycle/threshold/limit
// logic serves
//
//   - the live distributed traversal (internal/provquery.Client), where
//     a frame that crosses to another node rides a request message over
//     the simulated network and resumes when the message is delivered,
//   - the snapshot traversal (internal/provquery.SnapshotClient), where
//     every crossing resumes at once against frozen partition views and
//     the network cost is modeled instead of measured, and
//   - the federated traversal (internal/gateway), where crossings wait
//     for batched, version-pinned shard reads.
//
// A frame accumulates only what the query type asks for: the proof tree
// for lineage, the base tuples, the node set, or the derivation count.
// Query features (new query types, traversal limits, caching) and the
// one query driver, Run, are written here once for every source.
package provgraph

import (
	"errors"
	"sort"

	"repro/internal/rel"
	"repro/internal/simnet"
)

// ErrNoProvenance: the start node records no provenance for the
// queried tuple.
var ErrNoProvenance = errors.New("no provenance")

// QueryType selects what the traversal computes.
type QueryType int

// Query types offered by the demonstration.
const (
	// Lineage returns the full proof tree of a tuple.
	Lineage QueryType = iota
	// BaseTuples returns the set of base tuples the result depends on.
	BaseTuples
	// Nodes returns the set of nodes that participated in any
	// derivation of the tuple.
	Nodes
	// DerivCount returns the total number of alternative proof trees.
	DerivCount
)

// String names the query type as the API and query language spell it.
func (t QueryType) String() string {
	switch t {
	case Lineage:
		return "lineage"
	case BaseTuples:
		return "base-tuples"
	case Nodes:
		return "nodes"
	case DerivCount:
		return "deriv-count"
	}
	return "unknown"
}

// Options tunes a query.
type Options struct {
	// UseCache reuses previously computed sub-results at each node
	// (invalidated whenever the node's provenance partition changes).
	// Ignored while MaxDepth or MaxNodes is set: limit-truncated
	// sub-results depend on where in the walk they were computed and
	// must not be reused.
	UseCache bool
	// Threshold, when > 0, bounds the number of alternative derivations
	// explored per tuple; results are then lower bounds marked Pruned.
	Threshold int
	// Sequential explores children one at a time (DFS order) instead of
	// issuing all sub-queries concurrently (BFS). Message counts match;
	// latency differs.
	Sequential bool
	// MaxDepth, when > 0, bounds the derivation chain: tuples MaxDepth
	// or more levels below the queried tuple are returned unexpanded
	// and marked Truncated (MaxDepth 1 expands only the root). Depth is
	// a property of the path, so the truncation frontier is identical
	// in every evaluation mode.
	MaxDepth int
	// MaxNodes, when > 0, bounds the total number of tuple vertices the
	// walk resolves; once the budget is spent, further vertices are
	// returned unexpanded and marked Truncated. The budget is consumed
	// in visit order: with Sequential (DFS) the frontier is identical
	// across evaluation modes, while concurrent (BFS) order may place
	// it differently live vs. snapshot.
	MaxNodes int
}

// Limited reports whether any traversal limit is set.
func (o Options) Limited() bool { return o.MaxDepth > 0 || o.MaxNodes > 0 }

// TupleAt is a tuple together with its home node.
type TupleAt struct {
	Tuple rel.Tuple
	Loc   string
}

// ProofDeriv is one derivation step in a proof tree.
type ProofDeriv struct {
	RID      rel.ID
	Rule     string
	RLoc     string
	Children []*ProofNode
}

// ProofNode is one tuple vertex in a proof tree.
type ProofNode struct {
	VID       rel.ID
	Tuple     rel.Tuple
	Loc       string
	Base      bool
	Cycle     bool // traversal met this tuple again on its own path
	Pruned    bool // some derivations were not explored (threshold)
	Truncated bool // expansion stopped by maxdepth/maxnodes
	Derivs    []*ProofDeriv
}

// Size counts the tuple vertices in the proof tree.
func (p *ProofNode) Size() int {
	n := 1
	for _, d := range p.Derivs {
		for _, c := range d.Children {
			n += c.Size()
		}
	}
	return n
}

// Depth returns the longest derivation chain length.
func (p *ProofNode) Depth() int {
	max := 0
	for _, d := range p.Derivs {
		for _, c := range d.Children {
			if d := c.Depth(); d > max {
				max = d
			}
		}
	}
	return max + 1
}

// Stats reports a query's cost.
type Stats struct {
	Messages int
	Bytes    int
	Latency  simnet.Time
	// CacheHits counts sub-results served from per-node caches during
	// the traversal itself (Options.UseCache on the live path).
	CacheHits int
}

// Result is a completed query.
type Result struct {
	Type      QueryType
	Root      *ProofNode // Lineage
	Bases     []TupleAt  // BaseTuples
	Nodes     []string   // Nodes
	Count     int        // DerivCount
	Pruned    bool
	Truncated bool
	Stats     Stats
}

// Base is one base-tuple leaf the walk reached, with the VID it was
// reached by, so deduplication never hashes the tuple again.
type Base struct {
	VID rel.ID
	TupleAt
}

// SubResult is what a walk computed for one tuple vertex: the field of
// the walk's query type, the other fields left zero, plus the limit
// flags. It is the walk's answer and the value of the live per-node
// cache.
type SubResult struct {
	Node      *ProofNode // Lineage: the vertex and its sub-proof
	Size      int        // Lineage: tuple vertices in Node's tree
	Bases     []Base     // BaseTuples: every base leaf reached, repeats kept
	BaseBytes int        // BaseTuples: the wire size of Bases
	Nodes     []string   // Nodes: the participating nodes, each once
	Count     int        // DerivCount
	Pruned    bool
	Truncated bool
}

// NewResult assembles a finished Result from the root sub-result,
// with Stats left zero.
func NewResult(typ QueryType, out SubResult) *Result {
	res := &Result{Type: typ, Pruned: out.Pruned, Truncated: out.Truncated}
	switch typ {
	case Lineage:
		res.Root = out.Node
	case BaseTuples:
		res.Bases = DedupBases(out.Bases)
	case Nodes:
		res.Nodes = out.Nodes
		sort.Strings(res.Nodes)
	case DerivCount:
		res.Count = out.Count
	}
	return res
}

// DedupBases drops duplicate base tuples and sorts deterministically.
func DedupBases(in []Base) []TupleAt {
	seen := make(map[rel.ID]bool, len(in))
	var out []TupleAt
	for _, b := range in {
		if !seen[b.VID] {
			seen[b.VID] = true
			out = append(out, b.TupleAt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Compare(out[j].Tuple) < 0 })
	return out
}
