package eval

import (
	"testing"

	"repro/internal/rel"
)

// Golden vectors for the two content identities eval mints, generated by
// the commit before they were framed into a stack buffer (when both went
// through rel.HashParts). RIDs key every ruleExec row, prov entry and
// stored exec bucket; contribution ids order an aggregate's derivations.
// A change here is an identity break, not a refactor.

var (
	goldenA = rel.NewTuple("link", rel.Addr("n1"), rel.Addr("n2"), rel.Int(3))
	goldenB = rel.NewTuple("path", rel.Addr("n1"), rel.Addr("n3"), rel.List(rel.Addr("n1"), rel.Addr("n3")))
	goldenC = rel.NewTuple("flag", rel.Addr("n1"), rel.Bool(true), rel.Str("x"), rel.Float(1.5))
)

func TestGoldenRuleExecID(t *testing.T) {
	a, b, c := goldenA.VID(), goldenB.VID(), goldenC.VID()
	for _, g := range []struct {
		name      string
		rule, loc string
		vids      []rel.ID
		want      string
	}{
		{"no inputs", "r1", "n1", nil, "c4aed1a46eba7ca1f50b3603341d25230eac169d"},
		{"one input", "r1", "n1", []rel.ID{a}, "6f5c737bc7205449786388e3b1ffe4eade74a653"},
		{"three inputs", "mc2", "n1", []rel.ID{a, b, c}, "823edb526fedcad6315f70706d7362ca7f3f7ab0"},
		{"empty rule and loc", "", "", []rel.ID{a}, "213409f999d5a3a3e0b14ad9874d7f7a3fb57269"},
		{"empty everything", "", "", nil, "e129f27c5103bc5cc44bcdf0a15e160d445066ff"},
	} {
		if got := RuleExecID(g.rule, g.loc, g.vids).String(); got != g.want {
			t.Errorf("%s: RuleExecID = %s, want %s", g.name, got, g.want)
		}
		parts := [][]byte{[]byte(g.rule), []byte(g.loc)}
		for i := range g.vids {
			parts = append(parts, g.vids[i][:])
		}
		if got := rel.HashParts(parts...).String(); got != g.want {
			t.Errorf("%s: HashParts framing = %s, want %s", g.name, got, g.want)
		}
	}
	// A firing carries the same RID whether or not its inputs carry VIDs.
	for _, inputs := range [][]rel.Tuple{
		{goldenA, goldenB, goldenC},
		{goldenA.Identified(), goldenB.Identified(), goldenC.Identified()},
	} {
		f := NewFiring("mc2", "n1", inputs, goldenA, "n1", 1)
		if got, want := f.RID.String(), "823edb526fedcad6315f70706d7362ca7f3f7ab0"; got != want {
			t.Errorf("NewFiring RID = %s, want %s", got, want)
		}
	}
}

func TestGoldenContribID(t *testing.T) {
	for _, g := range []struct {
		name   string
		val    rel.Value
		inputs []rel.Tuple
		want   string
	}{
		{"min over two inputs", rel.Int(3), []rel.Tuple{goldenA, goldenB}, "0783ff2a777e4a59e382eba971848602cb15d630"},
		{"no inputs", rel.Int(1), nil, "0984ac2a6a7550c69ac13966d2697c574f0b5a62"},
		{"list value", rel.List(rel.Addr("n1"), rel.Int(2)), []rel.Tuple{goldenC}, "5cf5a5c4154be445f05e6e68b26ddc96c67f6e8d"},
	} {
		if got := contribID(g.val, g.inputs).String(); got != g.want {
			t.Errorf("%s: contribID = %s, want %s", g.name, got, g.want)
		}
	}
}

// The identities are minted on the hot path of every firing: framing
// them must not allocate.
func TestIdentityHashingDoesNotAllocate(t *testing.T) {
	inputs := []rel.Tuple{goldenA.Identified(), goldenB.Identified(), goldenC.Identified()}
	vids := []rel.ID{inputs[0].VID(), inputs[1].VID(), inputs[2].VID()}
	for name, fn := range map[string]func(){
		"RuleExecID": func() { RuleExecID("mc2", "n1", vids) },
		"contribID":  func() { contribID(rel.Int(3), inputs) },
		"derivKey":   func() { derivKey(inputs) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
