// Package protocols contains the declarative networking protocols used
// in the NetTrails demonstration — MINCOST (pair-wise minimal path
// costs, the protocol of the paper's Figures 2 and 3), PATHVECTOR,
// DSR-style source routing for mobile networks, and DISTANCEVECTOR —
// together with topology generators for the demo scenarios.
package protocols

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
)

// MinCost computes pair-wise minimal path costs. It is the program the
// paper demonstrates in Figure 2: cost tuples propagate along links and
// mincost aggregates the minimum per (source, destination). The C < 64
// bound is the standard count-to-infinity mitigation: without it,
// deleting a link on a cycle makes the mutually-supporting cost values
// climb forever (the same pathology RIP solves with infinity=16).
const MinCost = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(cost, infinity, infinity, keys(1,2,3)).
materialize(mincost, infinity, infinity, keys(1,2)).

mc1 cost(@S,D,C) :- link(@S,D,C).
mc2 cost(@S,D,C) :- link(@S,Z,C1), mincost(@Z,D,C2), S != D, C := C1 + C2, C < 64.
mc3 mincost(@S,D,min<C>) :- cost(@S,D,C).
`

// PathVector computes best paths carrying the full node list, with
// loop avoidance via f_member — the NDlog path-vector protocol from
// "Declarative Networking".
const PathVector = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3,4)).
materialize(bestcost, infinity, infinity, keys(1,2)).
materialize(bestpath, infinity, infinity, keys(1,2,3,4)).

pv1 path(@S,D,C,P) :- link(@S,D,C), P := f_initlist(S,D).
pv2 path(@S,D,C,P) :- link(@S,Z,C1), bestpath(@Z,D,C2,P2), f_member(P2,S) == 0, C := C1 + C2, P := f_prepend(S,P2).
pv3 bestcost(@S,D,min<C>) :- path(@S,D,C,P).
pv4 bestpath(@S,D,C,P) :- path(@S,D,C,P), bestcost(@S,D,C).
`

// DSR is a source-routing protocol in the style of dynamic source
// routing: every node accumulates loop-free source routes to every
// reachable destination. Used for the mobile-network scenario.
const DSR = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2,3)).

dsr1 route(@S,D,P) :- link(@S,D,_), P := f_initlist(S,D).
dsr2 route(@S,D,P) :- link(@S,Z,_), route(@Z,D,P2), f_member(P2,S) == 0, P := f_prepend(S,P2).
`

// DistanceVector is RIP-style distance vector routing with a hop-count
// infinity of 16 to bound count-to-infinity.
const DistanceVector = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(hop, infinity, infinity, keys(1,2,3,4)).
materialize(bestcost, infinity, infinity, keys(1,2)).

dv1 hop(@S,D,D,C) :- link(@S,D,C).
dv2 hop(@S,D,Z,C) :- link(@S,Z,C1), bestcost(@Z,D,C2), C := C1 + C2, C < 16.
dv3 bestcost(@S,D,min<C>) :- hop(@S,D,Z,C).
`

// Programs maps each built-in protocol's command-line name to its
// program.
var Programs = map[string]string{
	"mincost":        MinCost,
	"pathvector":     PathVector,
	"dsr":            DSR,
	"distancevector": DistanceVector,
}

// NodeName returns the canonical node name used by the generators.
func NodeName(i int) string { return fmt.Sprintf("n%d", i) }

// NodeNames returns n canonical node names.
func NodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = NodeName(i + 1)
	}
	return out
}

// Edge is one undirected topology edge with a cost.
type Edge struct {
	A, B string
	Cost int64
}

// LineTopology chains n nodes: n1-n2-...-nN.
func LineTopology(n int, cost int64) []Edge {
	var out []Edge
	for i := 1; i < n; i++ {
		out = append(out, Edge{NodeName(i), NodeName(i + 1), cost})
	}
	return out
}

// RingTopology closes the line into a cycle.
func RingTopology(n int, cost int64) []Edge {
	out := LineTopology(n, cost)
	if n > 2 {
		out = append(out, Edge{NodeName(n), NodeName(1), cost})
	}
	return out
}

// StarTopology connects n1 to every other node.
func StarTopology(n int, cost int64) []Edge {
	var out []Edge
	for i := 2; i <= n; i++ {
		out = append(out, Edge{NodeName(1), NodeName(i), cost})
	}
	return out
}

// GridTopology arranges nodes in a rows×cols lattice.
func GridTopology(rows, cols int, cost int64) []Edge {
	name := func(r, c int) string { return NodeName(r*cols + c + 1) }
	var out []Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				out = append(out, Edge{name(r, c), name(r, c+1), cost})
			}
			if r+1 < rows {
				out = append(out, Edge{name(r, c), name(r+1, c), cost})
			}
		}
	}
	return out
}

// Topology generates the named topology (line, ring, star, grid or
// random) over n nodes and returns its edges and node count: a grid
// rounds n up to the nearest square.
func Topology(name string, n int, cost, seed int64) ([]Edge, int, error) {
	switch name {
	case "line":
		return LineTopology(n, cost), n, nil
	case "ring":
		return RingTopology(n, cost), n, nil
	case "star":
		return StarTopology(n, cost), n, nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return GridTopology(side, side, cost), side * side, nil
	case "random":
		return RandomTopology(n, n/2, 4, seed), n, nil
	}
	return nil, 0, fmt.Errorf("unknown topology %q", name)
}

// RandomTopology produces a connected random graph: a random spanning
// tree plus extra random edges, with costs in [1, maxCost]. It is
// deterministic for a given seed.
func RandomTopology(n int, extraEdges int, maxCost int64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	var out []Edge
	seen := map[[2]string]bool{}
	add := func(a, b string) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]string{a, b}
		if seen[k] {
			return false
		}
		seen[k] = true
		out = append(out, Edge{a, b, 1 + rng.Int63n(maxCost)})
		return true
	}
	// Random spanning tree: attach each node to a random earlier one.
	for i := 2; i <= n; i++ {
		j := 1 + rng.Intn(i-1)
		add(NodeName(i), NodeName(j))
	}
	for added := 0; added < extraEdges; {
		a := NodeName(1 + rng.Intn(n))
		b := NodeName(1 + rng.Intn(n))
		if add(a, b) {
			added++
		}
	}
	return out
}

// Build creates an engine running the given protocol over the topology
// and drives it to quiescence.
func Build(program string, nodes []string, edges []Edge, opts engine.Options) (*engine.Engine, error) {
	e, err := engine.New(program, nodes, opts)
	if err != nil {
		return nil, err
	}
	for _, ed := range edges {
		if err := e.AddBiLink(ed.A, ed.B, ed.Cost); err != nil {
			return nil, err
		}
	}
	e.RunQuiescent()
	return e, nil
}
