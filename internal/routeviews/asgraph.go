package routeviews

import (
	"fmt"
	"math/rand"
	"sort"
)

// LinkKind classifies one inter-AS adjacency in the CAIDA
// AS-relationship convention: -1 means the first AS provides transit
// to the second (provider-to-customer), 0 means settlement-free peers.
type LinkKind int

// AS relationship kinds (CAIDA serialization values).
const (
	ProviderToCustomer LinkKind = -1
	PeerToPeer         LinkKind = 0
)

// ASEdge is one edge of an AS-level topology. For ProviderToCustomer
// edges A is the provider and B the customer; for PeerToPeer the order
// carries no meaning.
type ASEdge struct {
	A, B string
	Kind LinkKind
}

// ASGraph is an AS-level topology: the sorted AS list plus its
// classified adjacencies, in the shape RouteViews-derived topologies
// (CAIDA serial-1 AS-relationship files) come in.
type ASGraph struct {
	ASes  []string
	Edges []ASEdge
}

// ASGraphOptions selects one synthetic AS graph.
type ASGraphOptions struct {
	// Nodes is the total AS count (>= 4).
	Nodes int
	// Seed makes generation deterministic.
	Seed int64
}

// The generator's shape: a fully-meshed transit-free core of tier1
// ASes; transitFrac of the rest are mid-tier transit providers, the
// others stubs; a non-core AS buys transit from 1 to maxProviders
// upstreams (each one past the first with probability 0.35).
const (
	tier1        = 4
	transitFrac  = 0.15
	maxProviders = 2
)

// ASName returns the canonical zero-padded AS name used by the
// generator: padding keeps the engine's lexicographic node order equal
// to numeric order at any scale.
func ASName(i, total int) string {
	width := 1
	for p := 10; p <= total; p *= 10 {
		width++
	}
	return fmt.Sprintf("AS%0*d", width, i)
}

// GenerateASGraph produces a synthetic internet-like AS topology:
// a fully-meshed tier-1 core of peers, a layer of mid-tier transit
// providers, and a majority of stub ASes, with providers drawn by
// preferential attachment so customer-cone sizes follow the heavy
// tail seen in real RouteViews/CAIDA graphs. The core's mesh is the
// only peering. The result is connected (every AS has an all-customer
// path from the core) and deterministic for a given options value.
func GenerateASGraph(o ASGraphOptions) (*ASGraph, error) {
	if o.Nodes < tier1 {
		return nil, fmt.Errorf("routeviews: AS graph needs >= 4 nodes, got %d", o.Nodes)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	g := &ASGraph{ASes: make([]string, o.Nodes)}
	for i := range g.ASes {
		g.ASes[i] = ASName(i+1, o.Nodes)
	}

	// Tier-1 core: full peer mesh.
	for i := 0; i < tier1; i++ {
		for j := i + 1; j < tier1; j++ {
			g.Edges = append(g.Edges, ASEdge{A: g.ASes[i], B: g.ASes[j], Kind: PeerToPeer})
		}
	}

	nTransit := int(float64(o.Nodes-tier1) * transitFrac)
	transitEnd := tier1 + nTransit // ASes [tier1, transitEnd) are mid-tier

	// weight[i] tracks 1 + customer count for preferential attachment.
	weight := make([]int, o.Nodes)
	for i := range weight {
		weight[i] = 1
	}
	// pickProvider draws an AS index from [0, limit) weighted by
	// customer cone, skipping self.
	pickProvider := func(limit, self int) int {
		total := 0
		for i := 0; i < limit; i++ {
			if i == self {
				continue
			}
			total += weight[i]
		}
		r := rng.Intn(total)
		for i := 0; i < limit; i++ {
			if i == self {
				continue
			}
			r -= weight[i]
			if r < 0 {
				return i
			}
		}
		panic("unreachable")
	}

	seen := map[[2]string]bool{}
	link := func(a, b int) bool {
		ka, kb := g.ASes[a], g.ASes[b]
		if ka > kb {
			ka, kb = kb, ka
		}
		key := [2]string{ka, kb}
		if seen[key] {
			return false
		}
		seen[key] = true
		g.Edges = append(g.Edges, ASEdge{A: g.ASes[a], B: g.ASes[b], Kind: ProviderToCustomer})
		return true
	}

	for i := tier1; i < o.Nodes; i++ {
		// Mid-tier ASes attach under the core or other mid-tiers that
		// came before them; stubs attach under anything non-stub.
		limit := transitEnd
		if i < transitEnd {
			limit = i
			if limit < tier1 {
				limit = tier1
			}
		}
		if limit > i {
			limit = i
		}
		nProv := 1
		for nProv < maxProviders && rng.Float64() < 0.35 {
			nProv++
		}
		for p := 0; p < nProv; p++ {
			prov := pickProvider(limit, i)
			if link(prov, i) {
				weight[prov]++
			}
		}
		// This draw once chose lateral peering between mid-tier ASes, at
		// probability 0; it stays so each seed keeps producing its graph.
		if i > tier1 && i < transitEnd {
			rng.Float64()
		}
	}
	return g, nil
}

// Providers returns the providers of one AS, sorted.
func (g *ASGraph) Providers(as string) []string {
	var out []string
	for _, e := range g.Edges {
		if e.Kind == ProviderToCustomer && e.B == as {
			out = append(out, e.A)
		}
	}
	sort.Strings(out)
	return out
}

// Customers returns the customers of one AS, sorted.
func (g *ASGraph) Customers(as string) []string {
	var out []string
	for _, e := range g.Edges {
		if e.Kind == ProviderToCustomer && e.A == as {
			out = append(out, e.B)
		}
	}
	sort.Strings(out)
	return out
}
