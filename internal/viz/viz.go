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

// ProofTreeOptions controls proof rendering.
type ProofTreeOptions struct {
	// MaxDepth limits rendered tuple levels (0 = unlimited). Beyond the
	// limit an ellipsis marks elided structure — the text analogue of
	// the hypertree's focus+context view.
	MaxDepth int
	// ShowVIDs includes vertex ids.
	ShowVIDs bool
}

// ProofTree renders a provenance proof tree.
func ProofTree(root *provquery.ProofNode, opts ProofTreeOptions) string {
	var b strings.Builder
	renderNode(&b, root, "", true, 1, opts)
	return b.String()
}

func renderNode(b *strings.Builder, p *provquery.ProofNode, prefix string, last bool, depth int, opts ProofTreeOptions) {
	connector := "+-"
	childPrefix := prefix + "| "
	if last {
		childPrefix = prefix + "  "
	}
	if prefix == "" {
		connector = ""
		childPrefix = "  "
	}
	label := p.Tuple.String()
	if p.Tuple.Rel == "" {
		label = "<unresolved " + p.VID.Short() + ">"
	}
	var marks []string
	if p.Base {
		marks = append(marks, "base")
	}
	if p.Cycle {
		marks = append(marks, "cycle")
	}
	if p.Pruned {
		marks = append(marks, "pruned")
	}
	if p.Truncated {
		marks = append(marks, "truncated")
	}
	mark := ""
	if len(marks) > 0 {
		mark = " [" + strings.Join(marks, ",") + "]"
	}
	vid := ""
	if opts.ShowVIDs {
		vid = " #" + p.VID.Short()
	}
	fmt.Fprintf(b, "%s%s%s @%s%s%s\n", prefix, connector, label, p.Loc, mark, vid)
	if opts.MaxDepth > 0 && depth >= opts.MaxDepth && len(p.Derivs) > 0 {
		fmt.Fprintf(b, "%s+- ...\n", childPrefix)
		return
	}
	for di, d := range p.Derivs {
		lastDeriv := di == len(p.Derivs)-1
		dConnector := "+-"
		dChildPrefix := childPrefix + "| "
		if lastDeriv {
			dChildPrefix = childPrefix + "  "
		}
		rid := ""
		if opts.ShowVIDs {
			rid = " #" + d.RID.Short()
		}
		fmt.Fprintf(b, "%s%svia rule %s @%s%s\n", childPrefix, dConnector, d.Rule, d.RLoc, rid)
		for ci, c := range d.Children {
			renderNode(b, c, dChildPrefix, ci == len(d.Children)-1, depth+1, opts)
		}
	}
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
