// Package viz renders NetTrails state as deterministic text: the
// network topology (RapidNet visualizer role) and provenance proof
// trees (hypertree visualizer role). The paper's Figure 2 exploration
// sequence — system-wide view, per-table view, tuple close-up — maps to
// TopologyView, TablesView, and TupleCard; ProofTree renders the
// provenance graph with a focus depth, the text analogue of the
// hyperbolic focus+context display.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/provenance"
	"repro/internal/provquery"
	"repro/internal/rel"
	"repro/internal/simnet"
)

// TopologyView renders nodes, links, and per-link traffic.
func TopologyView(net *simnet.Network) string {
	var b strings.Builder
	b.WriteString("topology\n")
	for _, n := range net.Nodes() {
		sent, recv, _ := net.NodeTraffic(n)
		fmt.Fprintf(&b, "  %s  (sent %d msg / %d B, recv %d msg / %d B)\n",
			n, sent.Messages, sent.Bytes, recv.Messages, recv.Bytes)
	}
	b.WriteString("links\n")
	for _, l := range net.Links() {
		state := "up"
		if !l.Up {
			state = "DOWN"
		}
		fmt.Fprintf(&b, "  %s -- %s  [%s, %dus, %d msg, %d B]\n",
			l.A, l.B, state, int64(l.Latency), l.Stats.Messages, l.Stats.Bytes)
	}
	return b.String()
}

// TablesView renders one node's tables in a published snapshot (the
// Figure 2(b) table list): the node's frozen tables at virtual time t
// and the size of its provenance partition.
func TablesView(node string, t simnet.Time, tables map[string]*rel.Frozen, prov provenance.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %s @ t=%dus\n", node, int64(t))
	var rels []string
	for r := range tables {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		fmt.Fprintf(&b, "  table %s (%d tuples)\n", r, tables[r].Len())
		for _, tp := range tables[r].Tuples() {
			fmt.Fprintf(&b, "    %s\n", tp)
		}
	}
	fmt.Fprintf(&b, "  provenance: %d prov entries, %d rule executions\n", prov.ProvEntries, prov.ExecEntries)
	return b.String()
}

// TupleCard renders one tuple's close-up (the Figure 2(c) black
// rectangle): relation, attribute values, and location.
func TupleCard(t rel.Tuple, loc string) string {
	lines := []string{
		fmt.Sprintf("tuple    %s", t.Rel),
		fmt.Sprintf("location %s", loc),
	}
	for i, v := range t.Vals {
		lines = append(lines, fmt.Sprintf("arg[%d]   %s", i, v))
	}
	lines = append(lines, fmt.Sprintf("vid      %s", t.VID().Short()))
	w := 0
	for _, l := range lines {
		if len(l) > w {
			w = len(l)
		}
	}
	var b strings.Builder
	b.WriteString("+" + strings.Repeat("-", w+2) + "+\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "| %-*s |\n", w, l)
	}
	b.WriteString("+" + strings.Repeat("-", w+2) + "+\n")
	return b.String()
}

// ProofTree renders a provenance proof tree. maxDepth limits rendered
// tuple levels (0 = unlimited). Beyond the limit an ellipsis marks
// elided structure — the text analogue of the hypertree's focus+context
// view.
func ProofTree(root *provquery.ProofNode, maxDepth int) string {
	r := treeRenderer{maxDepth: maxDepth}
	r.node(root, true, 1)
	return r.b.String()
}

// treeRenderer writes one proof tree. The indentation of the line being
// written is one buffer shared down the recursion: a vertex appends its
// children's part and cuts it off again on return.
type treeRenderer struct {
	b        strings.Builder
	maxDepth int
	prefix   []byte
	label    []byte // scratch for a tuple's literal
}

func (r *treeRenderer) node(p *provquery.ProofNode, last bool, depth int) {
	b := &r.b
	n := len(r.prefix)
	b.Write(r.prefix)
	if depth > 1 {
		b.WriteString("+-")
	}
	if p.Tuple.Rel == "" {
		b.WriteString("<unresolved ")
		b.WriteString(p.VID.Short())
		b.WriteByte('>')
	} else {
		r.label = p.Tuple.AppendLiteral(r.label[:0])
		b.Write(r.label)
	}
	b.WriteString(" @")
	b.WriteString(p.Loc)
	sep := " ["
	for _, m := range [...]struct {
		on   bool
		name string
	}{{p.Base, "base"}, {p.Cycle, "cycle"}, {p.Pruned, "pruned"}, {p.Truncated, "truncated"}} {
		if m.on {
			b.WriteString(sep)
			b.WriteString(m.name)
			sep = ","
		}
	}
	if sep == "," {
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	if last || depth == 1 {
		r.prefix = append(r.prefix, "  "...)
	} else {
		r.prefix = append(r.prefix, "| "...)
	}
	if r.maxDepth > 0 && depth >= r.maxDepth && len(p.Derivs) > 0 {
		b.Write(r.prefix)
		b.WriteString("+- ...\n")
		r.prefix = r.prefix[:n]
		return
	}
	child := len(r.prefix)
	for di, d := range p.Derivs {
		b.Write(r.prefix[:child])
		b.WriteString("+-via rule ")
		b.WriteString(d.Rule)
		b.WriteString(" @")
		b.WriteString(d.RLoc)
		b.WriteByte('\n')
		if di == len(p.Derivs)-1 {
			r.prefix = append(r.prefix[:child], "  "...)
		} else {
			r.prefix = append(r.prefix[:child], "| "...)
		}
		for ci, c := range d.Children {
			r.node(c, ci == len(d.Children)-1, depth+1)
		}
	}
	r.prefix = r.prefix[:n]
}

// SnapshotSummary one-lines the given nodes of a snapshot published at
// virtual time t (replay ticker view); counts reports a node's visible
// tuples and provenance entries.
func SnapshotSummary(t simnet.Time, nodes []string, counts func(node string) (tuples, provEntries int)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-10d", int64(t))
	for _, n := range nodes {
		tuples, prov := counts(n)
		fmt.Fprintf(&b, " %s:%dt/%dp", n, tuples, prov)
	}
	return b.String()
}
