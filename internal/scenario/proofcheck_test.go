package scenario

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/ndlog"
	"repro/internal/protocols"
	"repro/internal/provquery"
	"repro/internal/proxy"
	"repro/internal/rel"
	"repro/internal/server"
)

// proofChecker is the absolute oracle beside the relative ones (arm
// parity, CheckInvariants, checkQueryTypesAgree): it checks that a
// served lineage body is a real derivation at one snapshot. For every
// vertex:
//   - its VID is the hash of its parsed tuple;
//   - a Base vertex is live: its tuple is in its node's tables;
//   - unless pruned, truncated or a cycle, it has exactly as many
//     derivations, plus 1 if Base, as its node's partition holds.
//
// For every derivation:
//   - every child sits at the derivation's RLoc;
//   - the RID is the hash of the rule, RLoc and child VIDs;
//   - re-fire: the rule, applied to the children, yields the parent;
//   - RLoc's partition holds the execution.
type proofChecker struct {
	snap  *server.Snapshot
	rules map[string]*ndlog.Rule
	live  map[string]map[rel.ID]bool // node -> VIDs in its tables, filled on first use
	// parsed memoizes parseWireTuple by literal text, VID carried.
	parsed map[string]rel.Tuple
	errs   []error
}

// maxProofErrors bounds what one check reports about a broken body.
const maxProofErrors = 20

// newProofChecker checks bodies against snap, with the rules of the
// program eng runs, named the way eval.Compile names them.
func newProofChecker(eng *engine.Engine, snap *server.Snapshot) *proofChecker {
	n, _ := eng.Node(eng.Nodes()[0])
	c := &proofChecker{snap: snap, rules: map[string]*ndlog.Rule{},
		live: map[string]map[rel.ID]bool{}, parsed: map[string]rel.Tuple{}}
	for i, r := range n.RT.Program().Analysis.Program.Rules {
		name := r.Label
		if name == "" {
			name = fmt.Sprintf("rule%d_%s", i, r.Head.Rel)
		}
		c.rules[name] = r
	}
	return c
}

// check checks the body rooted at p and returns every defect found (up
// to maxProofErrors), nil when there is none.
func (c *proofChecker) check(p *client.ProofNode) error {
	c.errs = nil
	if t := c.tuple(p); t.Rel != "" {
		c.vertex(p, t)
	}
	return errors.Join(c.errs...)
}

func (c *proofChecker) fail(format string, args ...any) {
	if len(c.errs) < maxProofErrors {
		c.errs = append(c.errs, fmt.Errorf(format, args...))
	}
}

// tuple parses p's tuple and checks that its VID is the tuple's hash;
// it returns the zero Tuple when either fails.
func (c *proofChecker) tuple(p *client.ProofNode) rel.Tuple {
	if p.Tuple == nil {
		c.fail("vertex %s at %s has no tuple", p.VID, p.Loc)
		return rel.Tuple{}
	}
	t, ok := c.parsed[p.Tuple.Text]
	if !ok {
		var err error
		if t, err = parseWireTuple(p.Tuple); err != nil {
			c.fail("vertex %s at %s: %v", p.VID, p.Loc, err)
			return rel.Tuple{}
		}
		t = t.Identified()
		c.parsed[p.Tuple.Text] = t
	}
	if vid := t.VID().Short(); vid != p.VID {
		c.fail("%s at %s: VID %s, the tuple hashes to %s", t, p.Loc, p.VID, vid)
		return rel.Tuple{}
	}
	return t
}

// vertex checks p, whose tuple is t, and everything under it.
func (c *proofChecker) vertex(p *client.ProofNode, t rel.Tuple) {
	if p.Base && !c.isLive(p.Loc, t) {
		c.fail("base %s is not live at %s in version %d", t, p.Loc, c.snap.Version)
	}
	if !p.Pruned && !p.Truncated && !p.Cycle {
		var held int
		if view, ok := c.snap.PartitionView(p.Loc); ok {
			entries, _ := view.Derivations(t.VID())
			held = len(entries)
		}
		served := len(p.Derivs)
		if p.Base {
			served++
		}
		if served != held {
			c.fail("%s at %s: %d derivations served, the partition holds %d", t, p.Loc, served, held)
		}
	}
	for i := range p.Derivs {
		d := &p.Derivs[i]
		kids := make([]rel.Tuple, len(d.Children))
		parsed := true
		for j := range d.Children {
			ch := &d.Children[j]
			if ch.Loc != d.Loc {
				c.fail("%s: %s's child %d is at %s, not at RLoc %s", t, d.Rule, j, ch.Loc, d.Loc)
			}
			kids[j] = c.tuple(ch)
			parsed = parsed && kids[j].Rel != ""
		}
		if parsed {
			c.derivation(t, d, kids)
		}
		for j := range d.Children {
			if kids[j].Rel != "" {
				c.vertex(&d.Children[j], kids[j])
			}
		}
	}
}

// derivation checks one derivation d of parent over the parsed kids.
func (c *proofChecker) derivation(parent rel.Tuple, d *client.Deriv, kids []rel.Tuple) {
	vids := make([]rel.ID, len(kids))
	for i, k := range kids {
		vids[i] = k.VID()
	}
	rid := eval.RuleExecID(d.Rule, d.Loc, vids)
	if rid.Short() != d.RID {
		c.fail("%s: %s at %s has RID %s, its rule, node and inputs hash to %s", parent, d.Rule, d.Loc, d.RID, rid.Short())
		return
	}
	if d.Rule != proxy.TransmitRule {
		if err := c.refire(d.Rule, kids, parent); err != nil {
			c.fail("%s: re-fire of %s at %s: %v", parent, d.Rule, d.Loc, err)
		}
	}
	if view, ok := c.snap.PartitionView(d.Loc); !ok {
		c.fail("%s: %s ran at %s, which is not in the snapshot", parent, d.Rule, d.Loc)
	} else if _, ok := view.Exec(rid); !ok {
		c.fail("%s: %s holds no execution %s of %s", parent, d.Loc, d.RID, d.Rule)
	}
}

// refire applies the named rule to kids, matched to its body atoms in
// order, and checks that the head it projects is parent. A maybe rule
// matches its head against parent first, as the proxy does; a min or
// max head takes the aggregate from the derivation's own binding.
func (c *proofChecker) refire(name string, kids []rel.Tuple, parent rel.Tuple) error {
	r, ok := c.rules[name]
	if !ok {
		return fmt.Errorf("the program has no rule %s", name)
	}
	b := eval.Binding{}
	var trail eval.Trail
	if r.Maybe && !eval.MatchAtom(r.Head, parent, b, &trail) {
		return fmt.Errorf("the head does not match")
	}
	atoms := r.BodyAtoms()
	if len(atoms) != len(kids) {
		return fmt.Errorf("%d children for %d body atoms", len(kids), len(atoms))
	}
	for i, a := range atoms {
		if !eval.MatchAtom(a, kids[i], b, &trail) {
			return fmt.Errorf("child %s does not match body atom %s", kids[i], a.Rel)
		}
	}
	for _, term := range r.Body {
		switch term := term.(type) {
		case *ndlog.Assign:
			v, err := eval.EvalExpr(term.Expr, b)
			if err != nil {
				return err
			}
			b[term.Var] = v
		case *ndlog.Cond:
			ok, err := eval.EvalCond(term, b)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("a condition fails")
			}
		}
	}
	var agg rel.Value
	for _, arg := range r.Head.Args {
		if a, ok := arg.(*ndlog.AggArg); ok {
			if a.Func != "min" && a.Func != "max" {
				return fmt.Errorf("cannot re-fire a %s<> head from one derivation", a.Func)
			}
			agg = b[a.Var]
		}
	}
	head, err := eval.ProjectHead(r.Head, b, agg)
	if err != nil {
		return err
	}
	if !head.Equal(parent) {
		return fmt.Errorf("yields %s", head)
	}
	return nil
}

// isLive reports whether t is in loc's tables at the snapshot.
func (c *proofChecker) isLive(loc string, t rel.Tuple) bool {
	vids, ok := c.live[loc]
	if !ok {
		vids = map[rel.ID]bool{}
		tables, _ := c.snap.NodeTables(loc)
		for _, tbl := range tables {
			tbl.Scan(func(x rel.Tuple) bool {
				vids[x.VID()] = true
				return true
			})
		}
		c.live[loc] = vids
	}
	return vids[t.VID()]
}

// parseWireTuple parses a tuple from its wire form, whose attributes
// are NDlog literals as rel.Value.String renders them: an address is
// the bare word that is not a number or a boolean.
func parseWireTuple(w *client.Tuple) (rel.Tuple, error) {
	vals := make([]rel.Value, len(w.Vals))
	for i, s := range w.Vals {
		v, rest, err := parseWireValue(s)
		if err == nil && rest != "" {
			err = fmt.Errorf("%q follows the value", rest)
		}
		if err != nil {
			return rel.Tuple{}, fmt.Errorf("attribute %d of %s: %v", i, w.Text, err)
		}
		vals[i] = v
	}
	t := rel.NewTuple(w.Rel, vals...)
	if text := server.JSONTuple(t).Text; text != w.Text {
		return rel.Tuple{}, fmt.Errorf("%s parses to a tuple rendered %s", w.Text, text)
	}
	return t, nil
}

// parseWireValue parses the value s starts with and returns the rest.
func parseWireValue(s string) (rel.Value, string, error) {
	switch {
	case strings.HasPrefix(s, "["):
		var elems []rel.Value
		for s = s[1:]; !strings.HasPrefix(s, "]"); {
			if len(elems) > 0 {
				var ok bool
				if s, ok = strings.CutPrefix(s, ", "); !ok {
					return rel.Value{}, "", fmt.Errorf("unterminated list")
				}
			}
			v, rest, err := parseWireValue(s)
			if err != nil {
				return rel.Value{}, "", err
			}
			elems, s = append(elems, v), rest
		}
		return rel.List(elems...), s[1:], nil
	case strings.HasPrefix(s, `"`):
		q, err := strconv.QuotedPrefix(s)
		if err != nil {
			return rel.Value{}, "", err
		}
		str, _ := strconv.Unquote(q)
		return rel.Str(str), s[len(q):], nil
	}
	end := strings.IndexAny(s, ",]")
	if end < 0 {
		end = len(s)
	}
	word, rest := s[:end], s[end:]
	switch {
	case word == "":
		return rel.Value{}, "", fmt.Errorf("missing value")
	case word == "true", word == "false":
		return rel.Bool(word == "true"), rest, nil
	case strings.IndexByte("+-.0123456789", word[0]) < 0 && word != "NaN":
		return rel.Addr(word), rest, nil
	}
	if n, err := strconv.ParseInt(word, 10, 64); err == nil {
		return rel.Int(n), rest, nil
	}
	f, err := strconv.ParseFloat(word, 64)
	return rel.Float(f), rest, err
}

// checkProofs runs the proof checker over every 200 lineage body among
// a deployment's check results, each against the single arm's snapshot
// at the body's version, and returns how many bodies it checked.
func checkProofs(t *testing.T, d *Deployment, results []*CheckResult) int {
	t.Helper()
	checked := 0
	for _, r := range results {
		if r.Response == nil || r.Response.Proof == nil {
			continue
		}
		snap, ok := d.SinglePub.At(r.Response.Version)
		if !ok {
			t.Fatalf("check %s: version %d is not retained", r.Check.Name, r.Response.Version)
		}
		if err := newProofChecker(d.SinglePub.Engine(), snap).check(r.Response.Proof); err != nil {
			t.Errorf("check %s (%s): the served proof is wrong:\n%v", r.Check.Name, r.Check.Query, err)
		}
		checked++
	}
	return checked
}

// TestProofCheckerCatchesPlantedDefects plants one defect per subtest
// into a correct lineage body from a small mincost grid; each must fail
// the check written for it.
func TestProofCheckerCatchesPlantedDefects(t *testing.T) {
	edges, n, err := protocols.Topology("grid", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := protocols.NodeNames(n)
	eng, err := protocols.Build(protocols.Programs["mincost"], nodes, edges, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := server.NewPublisher(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Detach()
	snap := pub.Current()
	far := nodes[len(nodes)-1]
	var root rel.Tuple
	tables, _ := snap.NodeTables(nodes[0])
	for _, tup := range tables["mincost"].Tuples() {
		if dst, _ := tup.Vals[1].AsAddr(); dst == far {
			root = tup
		}
	}
	lin, err := snap.Query(provquery.Lineage, nodes[0], root, provquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	body := func() *client.ProofNode {
		p := server.JSONProof(lin.Root)
		return &p
	}
	if err := newProofChecker(eng, snap).check(body()); err != nil {
		t.Fatalf("the untouched body of %s fails: %v", root, err)
	}
	// find returns the first derivation of rule in p, depth first.
	var find func(p *client.ProofNode, rule string) *client.Deriv
	find = func(p *client.ProofNode, rule string) *client.Deriv {
		for i := range p.Derivs {
			d := &p.Derivs[i]
			if d.Rule == rule {
				return d
			}
			for j := range d.Children {
				if f := find(&d.Children[j], rule); f != nil {
					return f
				}
			}
		}
		return nil
	}

	t.Run("tampered child, RID recomputed", func(t *testing.T) {
		p := body()
		d := find(p, "mc2_loc2")
		if d == nil {
			t.Fatal("no mc2_loc2 derivation in the body")
		}
		// Raise the cost of the mincost child, then re-hash it and the
		// RID over it: only re-firing the rule can tell.
		ch := &d.Children[1]
		old, err := parseWireTuple(ch.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := old.Vals[2].AsInt()
		forged := rel.NewTuple(old.Rel, old.Vals[0], old.Vals[1], rel.Int(c+1))
		jt := server.JSONTuple(forged)
		ch.Tuple, ch.VID = &jt, forged.VID().Short()
		vids := make([]rel.ID, len(d.Children))
		for i := range d.Children {
			k, err := parseWireTuple(d.Children[i].Tuple)
			if err != nil {
				t.Fatal(err)
			}
			vids[i] = k.VID()
		}
		d.RID = eval.RuleExecID(d.Rule, d.Loc, vids).Short()
		err = newProofChecker(eng, snap).check(p)
		if err == nil || !strings.Contains(err.Error(), "re-fire of mc2_loc2") {
			t.Fatalf("check = %v, want a failed re-fire of mc2_loc2", err)
		}
		if strings.Contains(err.Error(), "hash") {
			t.Fatalf("the hashes were recomputed, yet a hash check failed: %v", err)
		}
	})

	t.Run("dropped derivation", func(t *testing.T) {
		p := body()
		if len(p.Derivs) == 0 {
			t.Fatal("the root has no derivation")
		}
		p.Derivs = p.Derivs[1:]
		err := newProofChecker(eng, snap).check(p)
		if err == nil || !strings.Contains(err.Error(), "derivations served") {
			t.Fatalf("check = %v, want a completeness failure", err)
		}
	})

	t.Run("base deleted after the served version", func(t *testing.T) {
		p := body()
		lk := find(p, "mc1")
		if lk == nil {
			t.Fatal("no mc1 derivation in the body")
		}
		link, err := parseWireTuple(lk.Children[0].Tuple)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := link.Vals[0].AsAddr()
		b, _ := link.Vals[1].AsAddr()
		cost, _ := link.Vals[2].AsInt()
		if err := eng.RemoveBiLink(a, b, cost); err != nil {
			t.Fatal(err)
		}
		eng.RunQuiescent()
		later := pub.Current()
		if later.Version == snap.Version {
			t.Fatal("deleting a link published no version")
		}
		err = newProofChecker(eng, later).check(p)
		if want := fmt.Sprintf("base %s is not live", link); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("check = %v, want %q", err, want)
		}
	})
}
