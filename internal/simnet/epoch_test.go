package simnet

import (
	"math/rand"
	"reflect"
	"slices"
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

// TestMessagePathAllocatesNothing: once the event queue and the epoch
// buffers have grown, sending a message and delivering it — drained
// through NextEpoch and Deliver, or executed by Step — allocates
// nothing. A message queued behind a pointer, or an epoch drained into
// a fresh slice, fails here.
func TestMessagePathAllocatesNothing(t *testing.T) {
	n := New(1)
	delivered := 0
	count := func(Message) { delivered++ }
	for _, name := range []string{"a", "b"} {
		if err := n.AddNode(name, count); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Connect("a", "b", 2); err != nil {
		t.Fatal(err)
	}
	var payload any = []int{1, 2} // boxed once, outside the measured runs
	msg := Message{From: "a", To: "b", Kind: "x", Payload: payload, Size: 40}
	for _, path := range []struct {
		name string
		run  func()
	}{
		{"NextEpoch+Deliver", func() {
			n.Send(msg)
			ep, _ := n.NextEpoch()
			for _, ev := range ep.Events {
				n.Deliver(ev.Msg)
			}
		}},
		{"Step", func() {
			n.Send(msg)
			n.Step()
		}},
	} {
		path.run() // warm-up: the queue and the buffers grow here
		before := delivered
		if got := testing.AllocsPerRun(100, path.run); got != 0 {
			t.Errorf("%s: one message allocates %.1f times, want 0", path.name, got)
		}
		if delivered-before != 101 {
			t.Errorf("%s: delivered %d messages, want 101", path.name, delivered-before)
		}
	}
}

// TestEventHeapPopsInScheduleOrder: pushes and pops interleaved at
// random, the event heap always pops the pending event least in
// (at, seq), the order Step and NextEpoch rely on.
func TestEventHeapPopsInScheduleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pending []event
	for seq := uint64(1); seq <= 2000 || len(h) > 0; {
		if seq <= 2000 && (len(h) == 0 || rng.Intn(3) > 0) {
			e := event{at: Time(rng.Intn(50)), seq: seq}
			seq++
			h.push(e)
			pending = append(pending, e)
			continue
		}
		i := 0
		for k := range pending {
			if pending[k].before(&pending[i]) {
				i = k
			}
		}
		want := pending[i]
		pending = slices.Delete(pending, i, i+1)
		if got := h.pop(); got.at != want.at || got.seq != want.seq {
			t.Fatalf("popped (%d, %d), want (%d, %d)", got.at, got.seq, want.at, want.seq)
		}
	}
}
