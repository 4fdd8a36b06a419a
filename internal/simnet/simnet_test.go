package simnet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func twoNodes(t *testing.T) (*Network, *[]Message) {
	t.Helper()
	n := New(1)
	var got []Message
	if err := n.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", func(m Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	return n, &got
}

func TestAddNodeErrors(t *testing.T) {
	n := New(1)
	if err := n.AddNode("", nil); err == nil {
		t.Fatal("empty name must error")
	}
	if err := n.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("a", nil); err == nil {
		t.Fatal("duplicate must error")
	}
}

func TestSendOverLink(t *testing.T) {
	n, got := twoNodes(t)
	if _, err := n.Connect("a", "b", 5*Millisecond); err != nil {
		t.Fatal(err)
	}
	n.Send(Message{From: "a", To: "b", Kind: "delta", Size: 100})
	if len(*got) != 0 {
		t.Fatal("delivery must be asynchronous")
	}
	n.Run(0)
	if len(*got) != 1 || (*got)[0].Size != 100 {
		t.Fatalf("got = %v", *got)
	}
	if n.Now() != 5*Millisecond {
		t.Fatalf("now = %d", n.Now())
	}
	l, _ := n.LinkBetween("a", "b")
	if l.Stats.Messages != 1 || l.Stats.Bytes != 100 {
		t.Fatalf("link stats = %+v", l.Stats)
	}
}

func TestSendWithoutLinkUsesDefaultLatency(t *testing.T) {
	n, got := twoNodes(t)
	n.Send(Message{From: "a", To: "b"})
	n.Run(0)
	if len(*got) != 1 || n.Now() != LinkLatency {
		t.Fatalf("got=%d now=%d", len(*got), n.Now())
	}
}

func TestDownLinkDrops(t *testing.T) {
	n, got := twoNodes(t)
	n.Connect("a", "b", Millisecond)
	n.SetLinkUp("a", "b", false)
	n.Send(Message{From: "a", To: "b"})
	n.Run(0)
	if len(*got) != 0 {
		t.Fatal("message over down link must drop")
	}
	l, _ := n.LinkBetween("a", "b")
	if l.Stats.Drops != 1 {
		t.Fatalf("link drops = %d", l.Stats.Drops)
	}
	n.SetLinkUp("a", "b", true)
	n.Send(Message{From: "a", To: "b"})
	n.Run(0)
	if len(*got) != 1 {
		t.Fatal("message after link restore must deliver")
	}
}

func TestLossyLinkDeterministic(t *testing.T) {
	run := func(seed int64) int {
		n := New(seed)
		delivered := 0
		n.AddNode("a", nil)
		n.AddNode("b", func(Message) { delivered++ })
		l, _ := n.Connect("a", "b", Millisecond)
		l.Loss = 0.5
		for i := 0; i < 100; i++ {
			n.Send(Message{From: "a", To: "b"})
		}
		n.Run(0)
		return delivered
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed delivered %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("loss 0.5 delivered %d of 100", a)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n, _ := twoNodes(t)
	n.Send(Message{From: "a", To: "zz"})
	_, _, drops := n.Totals()
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestLocalSendDeliversAsync(t *testing.T) {
	n := New(1)
	var got []Message
	n.AddNode("a", func(m Message) { got = append(got, m) })
	n.Send(Message{From: "a", To: "a"})
	if len(got) != 0 {
		t.Fatal("local send must still be scheduled")
	}
	n.Run(0)
	if len(got) != 1 || n.Now() != 0 {
		t.Fatalf("got=%d now=%d", len(got), n.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	n := New(1)
	var order []int
	n.After(10, func() { order = append(order, 2) })
	n.After(5, func() { order = append(order, 1) })
	n.After(10, func() { order = append(order, 3) }) // same time: FIFO by seq
	n.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	n := New(1)
	fired := 0
	n.After(5, func() { fired++ })
	n.After(50, func() { fired++ })
	count := n.RunUntil(10)
	if count != 1 || fired != 1 {
		t.Fatalf("count=%d fired=%d", count, fired)
	}
	if n.Now() != 10 {
		t.Fatalf("now = %d", n.Now())
	}
	if n.Pending() != 1 {
		t.Fatalf("pending = %d", n.Pending())
	}
}

func TestNeighborsAndLinks(t *testing.T) {
	n := New(1)
	for _, name := range []string{"a", "b", "c"} {
		n.AddNode(name, nil)
	}
	n.Connect("a", "b", Millisecond)
	n.Connect("a", "c", Millisecond)
	nb := n.Neighbors("a")
	if len(nb) != 2 || nb[0] != "b" || nb[1] != "c" {
		t.Fatalf("neighbors = %v", nb)
	}
	n.SetLinkUp("a", "b", false)
	nb = n.Neighbors("a")
	if len(nb) != 1 || nb[0] != "c" {
		t.Fatalf("neighbors after down = %v", nb)
	}
	if len(n.Links()) != 2 {
		t.Fatalf("links = %v", n.Links())
	}
	if _, err := n.Connect("a", "a", 0); err == nil {
		t.Fatal("self link must error")
	}
	if _, err := n.Connect("a", "zz", 0); err == nil {
		t.Fatal("unknown node must error")
	}
	// Reconnect re-activates with new latency.
	n.SetLinkUp("a", "c", false)
	l, err := n.Connect("a", "c", 9*Millisecond)
	if err != nil || !l.Up || l.Latency != 9*Millisecond {
		t.Fatalf("reconnect: %v %+v", err, l)
	}
}

// The adjacency lists must answer exactly what a scan of every link
// would: sorted up-link neighbors, nil for none, through any sequence of
// Connect and SetLinkUp.
func TestNeighborsMatchLinkScan(t *testing.T) {
	n := New(1)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, name := range names {
		n.AddNode(name, nil)
	}
	scan := func(name string) []string {
		var out []string
		for _, l := range n.Links() {
			if l.Up && l.A == name {
				out = append(out, l.B)
			} else if l.Up && l.B == name {
				out = append(out, l.A)
			}
		}
		sort.Strings(out)
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			n.Connect(a, b, Millisecond) // a == b errors and changes nothing
		default:
			n.SetLinkUp(a, b, rng.Intn(2) == 0)
		}
		for _, name := range names {
			got, want := n.Neighbors(name), scan(name)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Neighbors(%s) = %#v, link scan says %#v", step, name, got, want)
			}
		}
	}
}

func TestKindAndNodeAccounting(t *testing.T) {
	n, _ := twoNodes(t)
	n.Connect("a", "b", Millisecond)
	n.Send(Message{From: "a", To: "b", Kind: "delta", Size: 10})
	n.Send(Message{From: "a", To: "b", Kind: "query", Size: 20})
	n.Send(Message{From: "a", To: "b", Kind: "query", Size: 30})
	n.Run(0)
	kinds := n.KindTotals()
	if kinds["delta"].Messages != 1 || kinds["query"].Messages != 2 || kinds["query"].Bytes != 50 {
		t.Fatalf("kinds = %+v", kinds)
	}
	sent, _, ok := n.NodeTraffic("a")
	if !ok || sent.Messages != 3 || sent.Bytes != 60 {
		t.Fatalf("a sent = %+v", sent)
	}
	_, recv, _ := n.NodeTraffic("b")
	if recv.Messages != 3 {
		t.Fatalf("b recv = %+v", recv)
	}
	msgs, bytes, _ := n.Totals()
	if msgs != 3 || bytes != 60 {
		t.Fatalf("totals = %d %d", msgs, bytes)
	}
	n.ResetTraffic()
	msgs, bytes, _ = n.Totals()
	if msgs != 0 || bytes != 0 || len(n.KindTotals()) != 0 {
		t.Fatal("ResetTraffic incomplete")
	}
	if _, _, ok := n.NodeTraffic("zz"); ok {
		t.Fatal("unknown node traffic should report !ok")
	}
}

func TestPositionsAndRange(t *testing.T) {
	n := New(1)
	n.AddNode("a", nil)
	n.AddNode("b", nil)
	if err := n.SetPosition("a", Position{0, 0}); err != nil {
		t.Fatal(err)
	}
	n.SetPosition("b", Position{3, 4})
	if !n.InRange("a", "b", 5) {
		t.Fatal("distance 5 should be in range 5")
	}
	if n.InRange("a", "b", 4.9) {
		t.Fatal("should be out of range")
	}
	if err := n.SetPosition("zz", Position{}); err == nil {
		t.Fatal("unknown node must error")
	}
	p, ok := n.PositionOf("b")
	if !ok || p.X != 3 {
		t.Fatalf("pos = %v %v", p, ok)
	}
	if _, ok := n.PositionOf("zz"); ok {
		t.Fatal("phantom position")
	}
}

func TestMobilityScatterAndStep(t *testing.T) {
	n := New(7)
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddNode(name, nil)
	}
	m := NewMobilityModel(n, 7, 100, 100, 40, 5)
	var ups, downs int
	m.OnLinkUp = func(a, b string) { ups++ }
	m.OnLinkDown = func(a, b string) { downs++ }
	m.Scatter()
	initialUps := ups
	if len(m.AdjacentPairs()) != initialUps {
		t.Fatalf("pairs %d != ups %d", len(m.AdjacentPairs()), initialUps)
	}
	// Walk for a while; connectivity must change at some point with
	// these parameters.
	for i := 0; i < 200; i++ {
		m.Step()
	}
	if ups == initialUps && downs == 0 {
		t.Fatal("mobility produced no connectivity changes in 200 steps")
	}
	// Adjacency is symmetric and matches InRange.
	for _, p := range m.AdjacentPairs() {
		if !n.InRange(p[0], p[1], 40) {
			t.Fatalf("adjacent pair %v out of range", p)
		}
		if !m.Adjacent(p[0], p[1]) || !m.Adjacent(p[1], p[0]) {
			t.Fatal("Adjacent not symmetric")
		}
	}
}

func TestMobilityDeterministic(t *testing.T) {
	run := func() []string {
		n := New(3)
		for _, name := range []string{"a", "b", "c"} {
			n.AddNode(name, nil)
		}
		m := NewMobilityModel(n, 3, 50, 50, 25, 4)
		var log []string
		m.OnLinkUp = func(a, b string) { log = append(log, "+"+a+b) }
		m.OnLinkDown = func(a, b string) { log = append(log, "-"+a+b) }
		m.Scatter()
		for i := 0; i < 50; i++ {
			m.Step()
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different log lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("log diverges at %d: %s vs %s", i, a[i], b[i])
		}
	}
}
