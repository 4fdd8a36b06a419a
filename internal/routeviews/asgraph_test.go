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

// TestASGraphPinned pins the graph of every size the scenarios, tests
// and benchmark generate, hashed in the CAIDA serial-1 relationship
// format. The constants were taken from a generator that still had
// tunable tier sizes and peering; a change to the generator's random
// draws shows here first.
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
		if got := fmt.Sprintf("%x", sha256.Sum256(caidaBytes(g))); got != sum {
			t.Errorf("%d ASes, seed 1: sha256 %s, want %s", n, got, sum)
		}
	}
}

// caidaBytes renders g in the CAIDA serial-1 relationship format
// (`a|b|-1` provider-to-customer, `a|b|0` peer-to-peer), one edge per
// line, after a `# ases` comment naming every AS.
func caidaBytes(g *ASGraph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# ases %s\n", strings.Join(g.ASes, " "))
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "%s|%s|%d\n", e.A, e.B, e.Kind)
	}
	return b.Bytes()
}

// ValidateASGraph checks structural invariants: no duplicate edges, no
// self-loops, and (when connected is set) every AS reachable from
// every other over the undirected adjacency.
func ValidateASGraph(g *ASGraph, connected bool) error {
	names := map[string]bool{}
	for _, as := range g.ASes {
		if names[as] {
			return fmt.Errorf("routeviews: duplicate AS %s", as)
		}
		names[as] = true
	}
	adj := map[string][]string{}
	seen := map[[2]string]bool{}
	for _, e := range g.Edges {
		if !names[e.A] || !names[e.B] {
			return fmt.Errorf("routeviews: edge %s|%s references unknown AS", e.A, e.B)
		}
		if e.A == e.B {
			return fmt.Errorf("routeviews: self-loop at %s", e.A)
		}
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		k := [2]string{a, b}
		if seen[k] {
			return fmt.Errorf("routeviews: duplicate edge %s|%s", e.A, e.B)
		}
		seen[k] = true
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	if connected && len(g.ASes) > 0 {
		visited := map[string]bool{g.ASes[0]: true}
		frontier := []string{g.ASes[0]}
		for len(frontier) > 0 {
			n := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, m := range adj[n] {
				if !visited[m] {
					visited[m] = true
					frontier = append(frontier, m)
				}
			}
		}
		if len(visited) != len(g.ASes) {
			return fmt.Errorf("routeviews: graph not connected (%d of %d reachable)", len(visited), len(g.ASes))
		}
	}
	return nil
}
