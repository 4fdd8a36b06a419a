package bgp

import (
	"reflect"
	"testing"

	"repro/internal/simnet"
)

// rig builds speakers over a simnet with the given links and registers
// message handlers directly (no engine, no proxy).
func rig(t *testing.T, links []ASLink, ases ...string) (*simnet.Network, map[string]*Speaker) {
	t.Helper()
	net := simnet.New(1)
	speakers := map[string]*Speaker{}
	for _, as := range ases {
		as := as
		sp := NewSpeaker(as, net)
		speakers[as] = sp
		if err := net.AddNode(as, func(m simnet.Message) { speakers[as].HandleMessage(m) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		speakers[l.A].AddNeighbor(l.B, l.Rel)
		speakers[l.B].AddNeighbor(l.A, invert(l.Rel))
		if _, err := net.Connect(l.A, l.B, simnet.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return net, speakers
}

func TestOriginationPropagates(t *testing.T) {
	// AS1 --(AS2 is provider of AS1)-- AS2 -- AS3 chain.
	net, sps := rig(t, []ASLink{
		{A: "AS1", B: "AS2", Rel: Provider},
		{A: "AS2", B: "AS3", Rel: Provider},
	}, "AS1", "AS2", "AS3")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	p, ok := sps["AS3"].BestPath("10.0.0.0/24")
	if !ok {
		t.Fatal("AS3 has no route")
	}
	if len(p) != 3 || p[0] != "AS3" || p[1] != "AS2" || p[2] != "AS1" {
		t.Fatalf("AS3 path = %v", p)
	}
}

func TestWithdrawalPropagates(t *testing.T) {
	net, sps := rig(t, []ASLink{
		{A: "AS1", B: "AS2", Rel: Provider},
		{A: "AS2", B: "AS3", Rel: Provider},
	}, "AS1", "AS2", "AS3")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	sps["AS1"].WithdrawPrefix("10.0.0.0/24")
	net.Run(0)
	if _, ok := sps["AS3"].BestPath("10.0.0.0/24"); ok {
		t.Fatal("AS3 kept a withdrawn route")
	}
	if len(sps["AS2"].Prefixes()) != 0 {
		t.Fatalf("AS2 prefixes = %v", sps["AS2"].Prefixes())
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// AS4 learns 10.0.0.0/24 from both a customer (AS1) and a peer
	// (AS2); the customer route must win. Both AS1 and AS2 learn the
	// prefix from their own customer AS3, so exporting upward/sideways
	// is valley-free-legal.
	net, sps := rig(t, []ASLink{
		{A: "AS4", B: "AS1", Rel: Customer},
		{A: "AS4", B: "AS2", Rel: Peer},
		{A: "AS1", B: "AS3", Rel: Customer}, // AS3 is AS1's customer
		{A: "AS2", B: "AS3", Rel: Customer}, // AS3 is AS2's customer
	}, "AS1", "AS2", "AS3", "AS4")
	sps["AS3"].Originate("10.0.0.0/24")
	net.Run(0)
	from, ok := sps["AS4"].BestFrom("10.0.0.0/24")
	if !ok {
		t.Fatal("AS4 has no route")
	}
	if from != "AS1" {
		t.Fatalf("AS4 chose %s, want customer AS1", from)
	}
}

func TestShorterPathPreferredWithinClass(t *testing.T) {
	// Two customer routes; shorter AS path wins.
	net, sps := rig(t, []ASLink{
		{A: "AS9", B: "AS1", Rel: Customer},
		{A: "AS9", B: "AS2", Rel: Customer},
		{A: "AS2", B: "AS3", Rel: Customer},
		{A: "AS1", B: "AS0", Rel: Customer}, // direct: AS0 customer of AS1
		{A: "AS3", B: "AS0", Rel: Customer},
	}, "AS0", "AS1", "AS2", "AS3", "AS9")
	sps["AS0"].Originate("10.1.0.0/24")
	net.Run(0)
	p, ok := sps["AS9"].BestPath("10.1.0.0/24")
	if !ok {
		t.Fatal("AS9 has no route")
	}
	if len(p) != 3 { // AS9 AS1 AS0
		t.Fatalf("AS9 path = %v, want length 3", p)
	}
}

func TestValleyFreeExport(t *testing.T) {
	// AS2 learns a route from its provider AS1; it must NOT export it
	// to its peer AS3 (valley-free routing).
	net, sps := rig(t, []ASLink{
		{A: "AS2", B: "AS1", Rel: Provider},
		{A: "AS2", B: "AS3", Rel: Peer},
	}, "AS1", "AS2", "AS3")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	if _, ok := sps["AS2"].BestPath("10.0.0.0/24"); !ok {
		t.Fatal("AS2 should have the route")
	}
	if _, ok := sps["AS3"].BestPath("10.0.0.0/24"); ok {
		t.Fatal("peer AS3 must not receive a provider-learned route")
	}
	// But a customer would receive it.
	sps["AS2"].AddNeighbor("AS4", Customer)
	sp4 := NewSpeaker("AS4", net)
	sp4.AddNeighbor("AS2", Provider)
	net.AddNode("AS4", func(m simnet.Message) { sp4.HandleMessage(m) })
	net.Connect("AS2", "AS4", simnet.Millisecond)
	// Re-announce to trigger re-advertisement.
	sps["AS1"].WithdrawPrefix("10.0.0.0/24")
	net.Run(0)
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	if _, ok := sp4.BestPath("10.0.0.0/24"); !ok {
		t.Fatal("customer AS4 must receive provider-learned route")
	}
}

func TestLoopPrevention(t *testing.T) {
	// Triangle of peers: paths containing the receiving AS are dropped.
	net, sps := rig(t, []ASLink{
		{A: "AS1", B: "AS2", Rel: Customer},
		{A: "AS2", B: "AS3", Rel: Customer},
		{A: "AS3", B: "AS1", Rel: Customer},
	}, "AS1", "AS2", "AS3")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	for as, sp := range sps {
		p, ok := sp.BestPath("10.0.0.0/24")
		if !ok {
			t.Fatalf("%s has no route", as)
		}
		seen := map[string]bool{}
		for _, hop := range p {
			if seen[hop] {
				t.Fatalf("%s has looping path %v", as, p)
			}
			seen[hop] = true
		}
	}
}

func TestFailoverOnWithdraw(t *testing.T) {
	// AS4 has two disjoint routes to AS1's prefix; when the preferred
	// one is withdrawn upstream, it fails over.
	net, sps := rig(t, []ASLink{
		{A: "AS4", B: "AS2", Rel: Customer},
		{A: "AS4", B: "AS3", Rel: Peer},
		{A: "AS2", B: "AS1", Rel: Customer},
		{A: "AS3", B: "AS1", Rel: Customer},
	}, "AS1", "AS2", "AS3", "AS4")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	from, _ := sps["AS4"].BestFrom("10.0.0.0/24")
	if from != "AS2" {
		t.Fatalf("preferred neighbor = %s, want customer AS2", from)
	}
	// Break the AS2 branch: AS2 loses its route when AS1-AS2 session
	// stops offering it. Simulate by AS2 forgetting the neighbor route:
	// withdraw from origin and re-announce only via AS3.
	sps["AS2"].processUpdate(Update{From: "AS1", To: "AS2", Prefix: "10.0.0.0/24", Withdraw: true})
	net.Run(0)
	from, ok := sps["AS4"].BestFrom("10.0.0.0/24")
	if !ok {
		t.Fatal("AS4 lost all routes")
	}
	if from != "AS3" {
		t.Fatalf("failover chose %s, want AS3", from)
	}
}

func TestResetSessionFailsOver(t *testing.T) {
	// AS4 learns the prefix from customers AS2 and AS3; killing the
	// AS2 session fails over to AS3, and the implicit withdrawal of
	// AS2's route passes through the OnReceive tap, so a proxy
	// watching AS4 sees it.
	net, sps := rig(t, []ASLink{
		{A: "AS4", B: "AS2", Rel: Customer},
		{A: "AS4", B: "AS3", Rel: Customer},
		{A: "AS2", B: "AS1", Rel: Customer},
		{A: "AS3", B: "AS1", Rel: Customer},
	}, "AS1", "AS2", "AS3", "AS4")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	if from, _ := sps["AS4"].BestFrom("10.0.0.0/24"); from != "AS2" {
		t.Fatalf("initial best from %s", from)
	}
	var tapped []Update
	sps["AS4"].OnReceive = func(u Update) { tapped = append(tapped, u) }
	sps["AS4"].SetSessionDown("AS2")
	want := Update{From: "AS2", To: "AS4", Prefix: "10.0.0.0/24", Withdraw: true}
	if len(tapped) != 1 || !reflect.DeepEqual(tapped[0], want) {
		t.Fatalf("OnReceive saw %+v, want the one implicit withdrawal %+v", tapped, want)
	}
	net.Run(0)
	from, ok := sps["AS4"].BestFrom("10.0.0.0/24")
	if !ok || from != "AS3" {
		t.Fatalf("after reset: from=%s ok=%v", from, ok)
	}
	// Failing a session to an unknown neighbor is a no-op.
	sps["AS4"].SetSessionDown("AS9")
	net.Run(0)
	if _, ok := sps["AS4"].BestPath("10.0.0.0/24"); !ok {
		t.Fatal("no-op reset dropped routes")
	}
}

func TestResetSessionWithdrawsDownstream(t *testing.T) {
	net, sps := rig(t, []ASLink{
		{A: "AS2", B: "AS1", Rel: Customer},
		{A: "AS3", B: "AS2", Rel: Customer},
	}, "AS1", "AS2", "AS3")
	sps["AS1"].Originate("10.0.0.0/24")
	net.Run(0)
	if _, ok := sps["AS3"].BestPath("10.0.0.0/24"); !ok {
		t.Fatal("AS3 should have the route")
	}
	sps["AS2"].SetSessionDown("AS1")
	net.Run(0)
	if _, ok := sps["AS3"].BestPath("10.0.0.0/24"); ok {
		t.Fatal("AS3 kept a route withdrawn after session reset")
	}
}

func TestUnknownNeighborIgnored(t *testing.T) {
	net, sps := rig(t, nil, "AS1")
	sps["AS1"].processUpdate(Update{From: "AS9", To: "AS1", Prefix: "10.0.0.0/24", ASPath: []string{"AS9"}})
	net.Run(0)
	if len(sps["AS1"].Prefixes()) != 0 {
		t.Fatal("update from unknown neighbor must be ignored")
	}
}
