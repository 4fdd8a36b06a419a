package simnet

import (
	"reflect"
	"testing"
)

// twoNodeNet builds a pair of connected nodes whose handlers append
// delivered payloads to the returned log.
func twoNodeNet(t *testing.T, latency Time) (*Network, *[]string) {
	t.Helper()
	n := New(1)
	var log []string
	mk := func(name string) Handler {
		return func(m Message) { log = append(log, name+":"+m.Payload.(string)) }
	}
	if err := n.AddNode("a", mk("a")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", mk("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("a", "b", latency); err != nil {
		t.Fatal(err)
	}
	return n, &log
}

func TestNextEpochGroupsEarliestTimestamp(t *testing.T) {
	n, _ := twoNodeNet(t, 5)
	n.Send(Message{From: "a", To: "b", Kind: "x", Payload: "m1"})
	n.Send(Message{From: "b", To: "a", Kind: "x", Payload: "m2"})
	n.After(9, func() {})

	ep, ok := n.NextEpoch()
	if !ok {
		t.Fatal("expected an epoch")
	}
	if ep.At != 5 || len(ep.Events) != 2 {
		t.Fatalf("epoch = at %d with %d events, want at 5 with 2", ep.At, len(ep.Events))
	}
	if n.Now() != 5 {
		t.Fatalf("clock = %d, want 5", n.Now())
	}
	for i, ev := range ep.Events {
		if ev.Msg == nil {
			t.Fatalf("event %d is not a delivery", i)
		}
	}
	if ep.Events[0].Seq >= ep.Events[1].Seq {
		t.Fatalf("events out of schedule order: %d, %d", ep.Events[0].Seq, ep.Events[1].Seq)
	}
	// The timer at t=9 forms its own later epoch.
	ep2, ok := n.NextEpoch()
	if !ok || ep2.At != 9 || len(ep2.Events) != 1 || ep2.Events[0].Fn == nil {
		t.Fatalf("second epoch = %+v, ok=%v", ep2, ok)
	}
	if _, ok := n.NextEpoch(); ok {
		t.Fatal("queue should be drained")
	}
}

func TestNextEpochDeliverMatchesRun(t *testing.T) {
	build := func() (*Network, *[]string) {
		n := New(1)
		var log []string
		// A chain: delivering m1 at b triggers a reply, plus a timer
		// in the same instant as the reply's arrival.
		if err := n.AddNode("a", func(m Message) { log = append(log, "a:"+m.Payload.(string)) }); err != nil {
			t.Fatal(err)
		}
		if err := n.AddNode("b", func(m Message) {
			log = append(log, "b:"+m.Payload.(string))
			if m.Payload.(string) == "ping" {
				n.Send(Message{From: "b", To: "a", Kind: "x", Payload: "pong"})
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Connect("a", "b", 3); err != nil {
			t.Fatal(err)
		}
		n.Send(Message{From: "a", To: "b", Kind: "x", Payload: "ping"})
		n.After(6, func() { log = append(log, "timer") })
		return n, &log
	}

	serial, serialLog := build()
	serial.Run(0)

	epoch, epochLog := build()
	for {
		ep, ok := epoch.NextEpoch()
		if !ok {
			break
		}
		for _, ev := range ep.Events {
			if ev.Msg != nil {
				epoch.Deliver(ev.Msg)
			} else {
				ev.Fn()
			}
		}
	}

	if !reflect.DeepEqual(*serialLog, *epochLog) {
		t.Fatalf("epoch replay diverged: serial %v, epoch %v", *serialLog, *epochLog)
	}
	if serial.Now() != epoch.Now() {
		t.Fatalf("clocks diverged: %d vs %d", serial.Now(), epoch.Now())
	}
	sm, sb, _ := serial.Totals()
	em, eb, _ := epoch.Totals()
	if sm != em || sb != eb {
		t.Fatalf("traffic diverged: %d/%d vs %d/%d", sm, sb, em, eb)
	}
}

func TestDeliverAccountsReceiveTraffic(t *testing.T) {
	n, log := twoNodeNet(t, 1)
	n.Send(Message{From: "a", To: "b", Kind: "x", Payload: "m", Size: 40})
	ep, ok := n.NextEpoch()
	if !ok || len(ep.Events) != 1 {
		t.Fatalf("epoch = %+v, ok=%v", ep, ok)
	}
	n.Deliver(ep.Events[0].Msg)
	if len(*log) != 1 || (*log)[0] != "b:m" {
		t.Fatalf("log = %v", *log)
	}
	_, recv, ok := n.NodeTraffic("b")
	if !ok || recv.Messages != 1 || recv.Bytes != 40 {
		t.Fatalf("recv stats = %+v", recv)
	}
}
