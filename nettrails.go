// Package nettrails is the public API of the NetTrails reproduction: a
// declarative platform for maintaining and interactively querying
// network provenance in a distributed system (Zhou et al., SIGMOD 2011).
//
// A System bundles the pieces of the paper's Figure 1: the RapidNet-role
// execution engine running an NDlog program over a simulated network,
// the ExSPAN-role provenance maintenance and distributed query engines,
// and text visualization. The Log Store role is the publisher's version
// ring, backed by internal/provstore when nettrailsd's -data is set: a
// program that wants the system's state at past instants attaches
// server.NewPublisher(sys.Engine, retain), as cmd/replay and
// examples/mincost do. Legacy applications (the Quagga/BGP use case) are
// built with NewBGPDeployment, which adds black-box BGP speakers
// observed through maybe-rule proxies.
//
// Quickstart:
//
//	sys, _ := nettrails.NewSystem(nettrails.MinCost, nettrails.NodeNames(3))
//	sys.AddLink("n1", "n2", 1)
//	sys.AddLink("n2", "n3", 1)
//	res, _ := sys.Lineage("n1", nettrails.Tuple("mincost",
//	        nettrails.Addr("n1"), nettrails.Addr("n3"), nettrails.Int(2)))
//	fmt.Print(nettrails.RenderProof(res.Root))
package nettrails

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/engine"
	"repro/internal/ndlog"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/rewrite"
	"repro/internal/routeviews"
	"repro/internal/viz"
)

// Re-exported protocol programs (see internal/protocols for the NDlog
// sources).
const (
	MinCost        = protocols.MinCost
	PathVector     = protocols.PathVector
	DSR            = protocols.DSR
	DistanceVector = protocols.DistanceVector
)

// Value/tuple constructors re-exported for building facts and queries.
var (
	Int   = rel.Int
	Float = rel.Float
	Bool  = rel.Bool
	Str   = rel.Str
	Addr  = rel.Addr
	List  = rel.List
)

// Tuple builds a fact.
func Tuple(relName string, vals ...rel.Value) rel.Tuple {
	return rel.NewTuple(relName, vals...)
}

// NodeNames returns n canonical node names n1..nN.
func NodeNames(n int) []string { return protocols.NodeNames(n) }

// ParseTuple parses a tuple literal in NDlog fact syntax, e.g.
// mincost(@'n1','n3',2) — addresses quoted with single quotes, strings
// with double quotes. It is the query language's tuple syntax
// (provquery.ParseTupleLiteral).
func ParseTuple(src string) (rel.Tuple, error) { return provquery.ParseTupleLiteral(src) }

// QueryOptions re-exports provenance query tuning.
type QueryOptions = provquery.Options

// Config tunes a System. Every link has a fixed 1 ms latency.
type Config struct {
	Seed int64
}

// System is a running NetTrails instance.
type System struct {
	Engine *engine.Engine
	Query  *provquery.Client
}

// NewSystem compiles the NDlog program and boots a node per address.
func NewSystem(program string, nodes []string, cfg ...Config) (*System, error) {
	c := Config{Seed: 1}
	if len(cfg) > 0 {
		c = cfg[0]
	}
	eng, err := engine.New(program, nodes, engine.Options{Seed: c.Seed, Provenance: true})
	if err != nil {
		return nil, err
	}
	q, err := provquery.Attach(eng)
	if err != nil {
		return nil, err
	}
	if err := eng.LoadProgramFacts(); err != nil {
		return nil, err
	}
	return &System{Engine: eng, Query: q}, nil
}

// AddLink connects two nodes bidirectionally with link tuples and runs
// to quiescence.
func (s *System) AddLink(a, b string, cost int64) error {
	if err := s.Engine.AddBiLink(a, b, cost); err != nil {
		return err
	}
	s.Engine.RunQuiescent()
	return nil
}

// RemoveLink retracts a bidirectional link and runs to quiescence.
func (s *System) RemoveLink(a, b string, cost int64) error {
	if err := s.Engine.RemoveBiLink(a, b, cost); err != nil {
		return err
	}
	s.Engine.RunQuiescent()
	return nil
}

// Insert adds a base fact at its owning node and runs to quiescence.
func (s *System) Insert(t rel.Tuple) error { return s.Engine.InsertFact(t) }

// Delete retracts a base fact and runs to quiescence.
func (s *System) Delete(t rel.Tuple) error { return s.Engine.DeleteFact(t) }

// Tuples returns a relation's visible tuples at one node.
func (s *System) Tuples(node, relName string) ([]rel.Tuple, error) {
	n, ok := s.Engine.Node(node)
	if !ok {
		return nil, fmt.Errorf("nettrails: unknown node %s", node)
	}
	return n.Tuples(relName)
}

// Lineage queries the full proof tree of a tuple at its node.
func (s *System) Lineage(node string, t rel.Tuple, opts ...QueryOptions) (*provquery.Result, error) {
	return s.Query.Query(provquery.Lineage, node, t, first(opts))
}

// BaseTuples queries the contributing base tuples.
func (s *System) BaseTuples(node string, t rel.Tuple, opts ...QueryOptions) (*provquery.Result, error) {
	return s.Query.Query(provquery.BaseTuples, node, t, first(opts))
}

// ParticipatingNodes queries the set of nodes involved in derivations.
func (s *System) ParticipatingNodes(node string, t rel.Tuple, opts ...QueryOptions) (*provquery.Result, error) {
	return s.Query.Query(provquery.Nodes, node, t, first(opts))
}

// DerivationCount queries the number of alternative derivations.
func (s *System) DerivationCount(node string, t rel.Tuple, opts ...QueryOptions) (*provquery.Result, error) {
	return s.Query.Query(provquery.DerivCount, node, t, first(opts))
}

func first(opts []QueryOptions) QueryOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return QueryOptions{}
}

// QueryText runs a textual provenance query (see provquery.ParseQuery):
//
//	sys.QueryText("lineage of mincost(@'n1','n3',2) with cache")
func (s *System) QueryText(src string) (*provquery.Result, error) { return s.Query.Run(src) }

// DeletionSafety reports rules of the program whose deletions the
// counting-based engine cannot handle exactly (un-damped recursion over
// cycles).
func DeletionSafety(program string) ([]string, error) {
	prog, err := ndlog.Parse(program)
	if err != nil {
		return nil, err
	}
	return rewrite.DeletionSafety(prog), nil
}

// RenderProof renders a proof tree as text (full depth).
func RenderProof(root *provquery.ProofNode) string {
	return viz.ProofTree(root, 0)
}

// RenderProofFocused renders a proof tree limited to maxDepth tuple
// levels — the text analogue of the hypertree focus view.
func RenderProofFocused(root *provquery.ProofNode, maxDepth int) string {
	return viz.ProofTree(root, maxDepth)
}

// RenderProofDOT exports a proof tree as a Graphviz DOT graph (tuple
// vertices as boxes, rule executions as ellipses, clustered by node).
func RenderProofDOT(root *provquery.ProofNode) string { return viz.ProofDOT(root) }

// RenderTopology renders the network topology with traffic counters.
func (s *System) RenderTopology() string { return viz.TopologyView(s.Engine.Net) }

// RenderTupleCard renders a tuple close-up (Figure 2(c)).
func RenderTupleCard(t rel.Tuple, loc string) string { return viz.TupleCard(t, loc) }

// CompileReport shows a program's compilation pipeline: the source, the
// localized form, and the ExSPAN provenance rewrite.
func CompileReport(program string) (source, localized, withProvenance string, err error) {
	prog, err := ndlog.Parse(program)
	if err != nil {
		return "", "", "", err
	}
	if _, err := ndlog.Analyze(prog); err != nil {
		return "", "", "", err
	}
	loc, err := rewrite.Localize(prog)
	if err != nil {
		return "", "", "", err
	}
	aug, err := rewrite.Provenance(loc)
	if err != nil {
		return "", "", "", err
	}
	return prog.String(), loc.String(), aug.String(), nil
}

// ---- Legacy application (BGP/Quagga) facade ---------------------------

// ASRelationship re-exports BGP business relationships.
type ASRelationship = bgp.Relationship

// Relationship values for AS links.
const (
	CustomerOf = bgp.Customer
	PeerOf     = bgp.Peer
	ProviderOf = bgp.Provider
)

// ASLink re-exports an inter-AS adjacency.
type ASLink = bgp.ASLink

// BGPDeployment is a legacy BGP system observed by NetTrails proxies.
type BGPDeployment struct {
	*bgp.Deployment
	Query *provquery.Client
}

// NewBGPDeployment builds speakers, proxies, and the monitoring engine
// over an AS topology.
func NewBGPDeployment(ases []string, links []ASLink, cfg ...Config) (*BGPDeployment, error) {
	c := Config{Seed: 1}
	if len(cfg) > 0 {
		c = cfg[0]
	}
	d, err := bgp.NewDeployment(ases, links, engine.Options{Seed: c.Seed, Provenance: true})
	if err != nil {
		return nil, err
	}
	q, err := provquery.Attach(d.Eng)
	if err != nil {
		return nil, err
	}
	return &BGPDeployment{Deployment: d, Query: q}, nil
}

// ReplayTrace injects a RouteViews-style update trace, driving each
// event to quiescence.
func (d *BGPDeployment) ReplayTrace(events []routeviews.Event) error {
	for _, ev := range events {
		var err error
		switch ev.Type {
		case routeviews.Announce:
			err = d.Originate(ev.Origin, ev.Prefix)
		case routeviews.Withdraw:
			err = d.Withdraw(ev.Origin, ev.Prefix)
		}
		if err != nil {
			return fmt.Errorf("nettrails: trace event %d: %w", ev.Seq, err)
		}
	}
	return nil
}

// GenerateTrace builds a synthetic RouteViews-style trace over the
// deployment's ASes.
func (d *BGPDeployment) GenerateTrace(events int, seed int64) ([]routeviews.Event, error) {
	// Nodes is sorted, which keeps generation deterministic.
	return routeviews.Generate(routeviews.GenOptions{Events: events, Origins: d.Eng.Nodes(), Seed: seed})
}

// RouteLineage queries the derivation history of an AS's routing entry
// for a prefix.
func (d *BGPDeployment) RouteLineage(as, prefix string, opts ...QueryOptions) (*provquery.Result, error) {
	entry := rel.NewTuple("routeEntry", rel.Addr(as), rel.Str(prefix))
	return d.Query.Query(provquery.Lineage, as, entry, first(opts))
}
