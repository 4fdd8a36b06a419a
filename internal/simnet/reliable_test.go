package simnet

import "testing"

func TestReliableDeliversOverDownLink(t *testing.T) {
	n, got := twoNodes(t)
	l, _ := n.Connect("a", "b", 9*Millisecond)
	n.SetLinkUp("a", "b", false)
	n.Send(Message{From: "a", To: "b", Reliable: true})
	n.Run(0)
	if len(*got) != 1 {
		t.Fatal("reliable message dropped over down link")
	}
	// Rerouted: LinkLatency, not the link's own, and the link's stats
	// do not count it.
	if n.Now() != LinkLatency {
		t.Fatalf("now = %d, want rerouted delivery at %d", n.Now(), LinkLatency)
	}
	if l.Stats.Messages != 0 || l.Stats.Drops != 0 {
		t.Fatalf("down link accounted rerouted traffic: %+v", l.Stats)
	}
}

func TestReliableIgnoresLoss(t *testing.T) {
	n := New(5)
	delivered := 0
	n.AddNode("a", nil)
	n.AddNode("b", func(Message) { delivered++ })
	l, _ := n.Connect("a", "b", Millisecond)
	l.Loss = 1.0 // drop everything unreliable
	for i := 0; i < 20; i++ {
		n.Send(Message{From: "a", To: "b", Reliable: true})
	}
	n.Run(0)
	if delivered != 20 {
		t.Fatalf("delivered %d of 20 reliable messages", delivered)
	}
	if l.Stats.Drops != 0 {
		t.Fatalf("drops = %d", l.Stats.Drops)
	}
	// Unreliable traffic still drops.
	n.Send(Message{From: "a", To: "b"})
	n.Run(0)
	if delivered != 20 || l.Stats.Drops != 1 {
		t.Fatalf("loss stopped applying: delivered=%d drops=%d", delivered, l.Stats.Drops)
	}
}

func TestReliableToUnknownNodeStillDrops(t *testing.T) {
	n, _ := twoNodes(t)
	n.Send(Message{From: "a", To: "zz", Reliable: true})
	_, _, drops := n.Totals()
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestReliableUsesLinkLatencyWhenUp(t *testing.T) {
	n, got := twoNodes(t)
	n.Connect("a", "b", 2*Millisecond)
	n.Send(Message{From: "a", To: "b", Reliable: true})
	n.Run(0)
	if len(*got) != 1 || n.Now() != 2*Millisecond {
		t.Fatalf("got=%d now=%d", len(*got), n.Now())
	}
}
