package routeviews

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateASGraphDeterministic(t *testing.T) {
	opts := ASGraphOptions{Nodes: 64, Seed: 7}
	a, err := GenerateASGraph(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateASGraph(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same options produced different AS graphs")
	}
	c, err := GenerateASGraph(ASGraphOptions{Nodes: 64, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Fatal("different seeds produced identical AS graphs")
	}
}

func TestGenerateASGraphConnectedAtScale(t *testing.T) {
	for _, n := range []int{4, 25, 300, 2000} {
		g, err := GenerateASGraph(ASGraphOptions{Nodes: n, Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(g.ASes) != n {
			t.Fatalf("n=%d: got %d ASes", n, len(g.ASes))
		}
		if err := ValidateASGraph(g, true); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Zero-padded names keep lexicographic == numeric order.
		if !sortedStrings(g.ASes) {
			t.Fatalf("n=%d: AS names not sorted", n)
		}
	}
}

func TestGenerateASGraphDegreeTail(t *testing.T) {
	// Preferential attachment should concentrate customers: the busiest
	// provider of a 500-AS graph serves far more customers than the
	// median provider.
	g, err := GenerateASGraph(ASGraphOptions{Nodes: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	customers := map[string]int{}
	for _, e := range g.Edges {
		if e.Kind == ProviderToCustomer {
			customers[e.A]++
		}
	}
	max := 0
	for _, c := range customers {
		if c > max {
			max = c
		}
	}
	if max < 20 {
		t.Fatalf("busiest provider has only %d customers; degree distribution is flat", max)
	}
}

func TestASGraphRoundTrip(t *testing.T) {
	g, err := GenerateASGraph(ASGraphOptions{Nodes: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteASGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ParseASGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("round trip changed the graph:\nwant %+v\ngot  %+v", g, got)
	}
}

func TestParseASGraphInferredNodes(t *testing.T) {
	g, err := ParseASGraph(strings.NewReader("# free comment\nAS2|AS1|-1\n\nAS2|AS3|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"AS1", "AS2", "AS3"}; !reflect.DeepEqual(g.ASes, want) {
		t.Fatalf("inferred ASes = %v, want %v", g.ASes, want)
	}
	if len(g.Edges) != 2 {
		t.Fatalf("got %d edges, want 2", len(g.Edges))
	}
}

func TestParseASGraphRejects(t *testing.T) {
	for _, src := range []string{
		"",                          // empty
		"AS1|AS2",                   // missing relationship
		"AS1|AS2|7",                 // unknown relationship
		"AS1|AS1|0",                 // self-loop
		"|AS2|0",                    // empty name
		"# ases AS1 AS2\nAS1|AS3|0", // undeclared AS
		"0 |0|-1",                   // whitespace in a name (fuzz-found: breaks the header round trip)
	} {
		if _, err := ParseASGraph(strings.NewReader(src)); err == nil {
			t.Errorf("ParseASGraph(%q) succeeded, want error", src)
		}
	}
}

func TestProvidersCustomers(t *testing.T) {
	g := &ASGraph{
		ASes: []string{"AS1", "AS2", "AS3"},
		Edges: []ASEdge{
			{A: "AS1", B: "AS2", Kind: ProviderToCustomer},
			{A: "AS1", B: "AS3", Kind: ProviderToCustomer},
			{A: "AS2", B: "AS3", Kind: PeerToPeer},
		},
	}
	if got := g.Customers("AS1"); !reflect.DeepEqual(got, []string{"AS2", "AS3"}) {
		t.Fatalf("Customers(AS1) = %v", got)
	}
	if got := g.Providers("AS3"); !reflect.DeepEqual(got, []string{"AS1"}) {
		t.Fatalf("Providers(AS3) = %v", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestASGraphPinned pins the serialized graph of every size the
// scenarios, tests and benchmark generate. The constants were taken
// from a generator that still had tunable tier sizes and peering; a
// change to the generator's random draws shows here first.
func TestASGraphPinned(t *testing.T) {
	want := map[int]string{
		12:   "4883360fc09b244563fb3235b444f7446e4ecbdd9174fa78eadda6a340e86527",
		24:   "e14b5c32cb288d4a3dbca0761b0fd82fc99dff79e96842e8322dac96a20154f2",
		100:  "ff5bed3d403c23af657e337c5e83bd28a502b36a0829787d7a8596c13310a89c",
		200:  "b3583543ed5647ceca41dd1d29096202e24fb96da00dd12b3e02215e30a01ce6",
		320:  "bd0cd79f878c2652bfcac24280cdc512c4363ce1b406526f23bfd9a4552329ba",
		1000: "e346a243383258f54abc8fd18db3e146dcf7074237dcb187e6b1c7433f4ae99e",
	}
	for n, sum := range want {
		g, err := GenerateASGraph(ASGraphOptions{Nodes: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteASGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != sum {
			t.Errorf("%d ASes, seed 1: sha256 %s, want %s", n, got, sum)
		}
	}
}
